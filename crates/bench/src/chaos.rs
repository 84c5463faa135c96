//! Chaos sweep: accuracy, makespan, and recovery counters under seeded
//! fault injection (PR 10).
//!
//! Every row replays the same straggler-tail workload on the hierarchical
//! topology under one fault setting — message-loss and mid-round-crash
//! rates crossed on a small grid, plus one aggregator-outage row — with
//! the default retry/backoff recovery policy. Three claims become
//! measurable and CI-gated:
//!
//! 1. the fault-free row (zero rates, no outage) is **bit-identical** to
//!    the no-fault baseline (`baseline_match`);
//! 2. under 10% message loss the recovery layer retries (`retries > 0`)
//!    and never discards an update (`wasted_updates == 0` — exhausted
//!    sends degrade into the staleness buffer);
//! 3. the outage row re-homes its shard to the deterministic successor
//!    (`failovers > 0`) without touching the training math.
//!
//! [`ChaosRow`] lists its columns once, in [`Row::record`]; the
//! `chaos_sweep` binary hands them to [`crate::emit`] for the table and the
//! machine-readable `BENCH_chaos.json` record the CI smoke gate parses.

use lumos_core::{run_lumos, LumosConfig, RunReport};
use lumos_data::Dataset;
use lumos_sim::{FaultSpec, OutageWindow, Scenario};
use lumos_topo::TopologyConfig;

use crate::args::HarnessArgs;
use crate::emit::{Record, Row, Value};
use crate::presets::{cost_config, map_pairs};

/// Aggregator fan-in of the sweep's hierarchical topology.
pub const AGGREGATORS: usize = 4;

/// The loss × crash grid every scenario sweeps (rates as probabilities).
pub const FAULT_GRID: [(f64, f64); 4] = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.05), (0.1, 0.05)];

/// The outage row's window: aggregator 1 is dark for rounds 1 and 2.
pub const OUTAGE: OutageWindow = OutageWindow {
    aggregator: 1,
    from_round: 1,
    until_round: 3,
};

/// One fault setting's outcome: what the fleet learned, what it cost, and
/// what the recovery layer did about the injected faults.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Dataset name.
    pub dataset: String,
    /// Device scenario.
    pub scenario: Scenario,
    /// Per-attempt message-loss probability injected this row.
    pub loss_rate: f64,
    /// Per-device-round mid-round crash probability injected this row.
    pub crash_rate: f64,
    /// Whether this row injects the aggregator outage window ([`OUTAGE`]).
    pub outage: bool,
    /// Test accuracy the run converged to.
    pub accuracy: f64,
    /// Simulated seconds per epoch (backoff waits included).
    pub makespan: f64,
    /// Upload attempts the network lost (initial sends and retries).
    pub lost_messages: u64,
    /// Re-sends the recovery policy scheduled.
    pub retries: u64,
    /// Simulated seconds spent waiting out backoff before re-sends.
    pub retry_secs: f64,
    /// Device-rounds lost to injected mid-round crashes.
    pub crashed_devices: u64,
    /// Shard-rounds served by a failover successor during the outage.
    pub failovers: u64,
    /// Updates banked in the staleness buffer (exhausted sends degrade
    /// here instead of vanishing).
    pub buffered_updates: u64,
    /// Updates discarded forever — zero by construction (recovery defers,
    /// never drops), asserted by the CI smoke gate.
    pub wasted_updates: u64,
    /// Whether this row's report is bit-identical to the no-fault
    /// baseline (equal [`RunReport::digest`]s). True exactly on the
    /// fault-free row; the CI smoke gate asserts it.
    pub baseline_match: bool,
}

fn base_config(ds: &Dataset, scenario: Scenario, args: &HarnessArgs) -> LumosConfig {
    cost_config(ds, scenario, args).with_topology(TopologyConfig::Hierarchical {
        aggregators: AGGREGATORS,
    })
}

fn eval_row(
    ds: &Dataset,
    scenario: Scenario,
    loss_rate: f64,
    crash_rate: f64,
    outage: bool,
    baseline: &RunReport,
    args: &HarnessArgs,
) -> ChaosRow {
    let outages = if outage { vec![OUTAGE] } else { vec![] };
    let cfg = base_config(ds, scenario, args).with_faults(FaultSpec::Faults {
        crash_rate,
        loss_rate,
        duplicate_rate: 0.0,
        outages,
    });
    let report = run_lumos(ds, &cfg);
    let baseline_match = report.digest() == baseline.digest();
    let sim = report
        .sim
        .expect("scenario configs always produce a sim summary");
    ChaosRow {
        dataset: ds.name.clone(),
        scenario,
        loss_rate,
        crash_rate,
        outage,
        accuracy: report.test_metric,
        makespan: sim.avg_epoch_virtual_secs,
        lost_messages: sim.lost_messages,
        retries: sim.retries,
        retry_secs: sim.retry_secs,
        crashed_devices: sim.crashed_devices,
        failovers: sim.failovers,
        buffered_updates: sim.buffered_updates,
        wasted_updates: sim.wasted_updates,
        baseline_match,
    }
}

fn eval_scenario(ds: &Dataset, scenario: Scenario, args: &HarnessArgs) -> Vec<ChaosRow> {
    // The no-fault baseline every row's `baseline_match` compares against:
    // the exact seed path, `FaultSpec::None`.
    let baseline = run_lumos(ds, &base_config(ds, scenario, args));
    let mut rows = map_pairs(&FAULT_GRID, |&(loss, crash)| {
        eval_row(ds, scenario, loss, crash, false, &baseline, args)
    });
    rows.push(eval_row(ds, scenario, 0.0, 0.0, true, &baseline, args));
    rows
}

/// Runs the chaos sweep on the primary dataset. Quick mode restricts the
/// sweep to the straggler tail (the fleet the CI smoke gate asserts on);
/// full mode adds churn, where injected faults compound natural absence.
pub fn run(args: &HarnessArgs) -> Vec<ChaosRow> {
    let ds = Dataset::facebook_like(args.scale);
    let scenarios: &[Scenario] = if args.quick {
        &[Scenario::StragglerTail]
    } else {
        &[Scenario::StragglerTail, Scenario::Churn]
    };
    scenarios
        .iter()
        .flat_map(|&s| eval_scenario(&ds, s, args))
        .collect()
}

impl Row for ChaosRow {
    const TITLE: &'static str =
        "Chaos sweep: accuracy × makespan × recovery counters under seeded fault injection";

    fn record(&self) -> Record {
        use Value::{Bool, Num, Str, UInt};
        vec![
            ("dataset", Str(self.dataset.clone())),
            ("scenario", Str(self.scenario.name().into())),
            ("loss_rate", Num(self.loss_rate)),
            ("crash_rate", Num(self.crash_rate)),
            ("outage", Bool(self.outage)),
            ("accuracy", Num(self.accuracy)),
            ("makespan", Num(self.makespan)),
            ("lost_messages", UInt(self.lost_messages)),
            ("retries", UInt(self.retries)),
            ("retry_secs", Num(self.retry_secs)),
            ("crashed_devices", UInt(self.crashed_devices)),
            ("failovers", UInt(self.failovers)),
            ("buffered_updates", UInt(self.buffered_updates)),
            ("wasted_updates", UInt(self.wasted_updates)),
            ("baseline_match", Bool(self.baseline_match)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit;
    use lumos_data::Scale;

    fn smoke_args() -> HarnessArgs {
        HarnessArgs {
            scale: Scale::Smoke,
            seed: 8,
            quick: true,
            json: None,
            sensitivity: false,
        }
    }

    #[test]
    fn quick_sweep_carries_the_three_gated_claims() {
        let args = smoke_args();
        let rows = run(&args);
        // Quick mode: the 2×2 grid plus the outage row, straggler tail only.
        assert_eq!(rows.len(), FAULT_GRID.len() + 1);
        // Claim 1: the fault-free row reproduces the baseline bit for bit —
        // and it is the only row that does.
        for r in &rows {
            let fault_free = r.loss_rate == 0.0 && r.crash_rate == 0.0 && !r.outage;
            assert_eq!(
                r.baseline_match, fault_free,
                "baseline_match must hold exactly on the fault-free row: {r:?}"
            );
        }
        // Claim 2: under 10% loss the recovery layer retries and never
        // discards an update.
        for r in rows.iter().filter(|r| r.loss_rate > 0.0) {
            assert!(r.lost_messages > 0, "injected loss must fire: {r:?}");
            assert!(r.retries > 0, "lost sends must be retried: {r:?}");
            assert!(r.retry_secs > 0.0, "backoff waits must be priced: {r:?}");
            assert_eq!(r.wasted_updates, 0, "recovery never discards: {r:?}");
        }
        // Claim 3: the outage row re-homes its shard without touching the
        // training math (same accuracy as the fault-free row).
        let outage = rows.iter().find(|r| r.outage).expect("outage row");
        let calm = rows
            .iter()
            .find(|r| r.baseline_match)
            .expect("fault-free row");
        assert_eq!(outage.failovers, 2, "one re-homed shard, rounds 1 and 2");
        assert_eq!(outage.accuracy.to_bits(), calm.accuracy.to_bits());
        // Crash rows must record their device-rounds.
        assert!(
            rows.iter()
                .any(|r| r.crash_rate > 0.0 && r.crashed_devices > 0),
            "5% crash over the fleet should fire at least once"
        );
        assert_eq!(emit::table(&rows).len(), rows.len());
    }

    /// The keys `.github/workflows/ci.yml`'s chaos step reads off each row.
    #[test]
    fn record_carries_every_key_the_ci_gate_reads() {
        let args = smoke_args();
        let rows = vec![ChaosRow {
            dataset: "facebook-smoke".into(),
            scenario: Scenario::StragglerTail,
            loss_rate: 0.1,
            crash_rate: 0.05,
            outage: false,
            accuracy: 0.61,
            makespan: 12.75,
            lost_messages: 40,
            retries: 37,
            retry_secs: 18.5,
            crashed_devices: 3,
            failovers: 0,
            buffered_updates: 9,
            wasted_updates: 0,
            baseline_match: false,
        }];
        emit::tests::assert_has_keys(
            &rows[0].record(),
            &[
                "loss_rate",
                "crash_rate",
                "outage",
                "baseline_match",
                "wasted_updates",
                "lost_messages",
                "retries",
                "retry_secs",
                "crashed_devices",
                "failovers",
                "accuracy",
            ],
        );
        let sections = vec![("rows", emit::rows(&rows))];
        let json = emit::document("chaos_sweep", Some(args.scale), &args, sections).render();
        assert!(json.contains("\"bench\": \"chaos_sweep\""));
        assert!(json.contains("\"scenario\": \"straggler-tail\""));
        assert!(json.contains("\"loss_rate\": 0.1"));
        assert!(json.contains("\"crash_rate\": 0.05"));
        assert!(json.contains("\"outage\": false"));
        assert!(json.contains("\"lost_messages\": 40"));
        assert!(json.contains("\"retries\": 37"));
        assert!(json.contains("\"retry_secs\": 18.5"));
        assert!(json.contains("\"crashed_devices\": 3"));
        assert!(json.contains("\"failovers\": 0"));
        assert!(json.contains("\"wasted_updates\": 0"));
        assert!(json.contains("\"baseline_match\": false"));
    }
}
