//! Figure 8 extension: system cost across heterogeneous-device scenarios.
//!
//! The paper evaluates tree trimming on identical devices (Fig. 8). This
//! sweep replays the same workload through `lumos-sim` under each
//! [`Scenario`] preset and reports the simulated epoch makespan six ways:
//! trimmed under the paper's node-count objective, trimmed under the
//! capability-weighted [`BalanceObjective::VirtualSecs`] objective,
//! trimmed under the semi-synchronous deadline aggregation policy
//! ([`AggregationPolicy::Deadline`] at [`DEADLINE_FACTOR`]), trimmed under
//! the buffered policy ([`AggregationPolicy::Buffered`] at the same factor
//! and [`BUFFERED_DECAY`]), trimmed under the barrier-free async quorum
//! ([`AggregationPolicy::Async`] at [`ASYNC_QUORUM_NUM`]⁄[`ASYNC_QUORUM_DEN`]
//! of the fleet), and untrimmed. Six claims become measurable: the
//! makespan ordering `Uniform < StragglerTail` for the same workload, the
//! growth of trimming's win as capability heterogeneity compounds the
//! degree heterogeneity the trimmer targets, the additional win of
//! balancing virtual seconds instead of tree nodes once devices stop being
//! equals, the barrier time the deadline buys back by dropping late
//! updates (`late_drops` counts what that costs in participation), that
//! buffering keeps that barrier win while wasting nothing
//! (`buffered_updates` banked, `wasted_updates` zero, `migrated_nodes`
//! moved off overloaded devices), and that abolishing the barrier outright
//! keeps the makespan win with *zero* drops and *zero* waste — the quorum
//! closes each round at the `min_updates`-th landing and carries the
//! overflow forward at full weight.
//!
//! [`run_sensitivity`] adds the buffered policy's decay × re-balance-
//! trigger sensitivity grid ([`SensitivityRow`]): how accuracy and
//! makespan move as the staleness discount and the migration trigger
//! sweep a small grid under the straggler-tail (and, at full scale,
//! churn) fleets.
//!
//! Both row types list their columns once, in [`Row::record`]; the
//! `fig8_hetero` binary hands them to [`crate::emit`] for the tables and
//! the machine-readable `BENCH_fig8.json` record the CI smoke gate parses.

use lumos_core::{run_lumos, AggregationPolicy, BalanceObjective, SimSummary};
use lumos_data::Dataset;
use lumos_sim::Scenario;

use crate::args::HarnessArgs;
use crate::emit::{Record, Row, Value};
use crate::presets::{cost_config, map_pairs};

/// Deadline multiple the sweep's semi-sync column runs at: updates landing
/// after `2 × median` delivery are dropped from the round.
pub const DEADLINE_FACTOR: f64 = 2.0;

/// Per-round staleness discount for the sweep's buffered column: a late
/// update blends into its arrival round at `0.5^staleness`.
pub const BUFFERED_DECAY: f64 = 0.5;

/// Async quorum fraction, as a ratio: the async column closes each round
/// once `⌈n × ASYNC_QUORUM_NUM / ASYNC_QUORUM_DEN⌉` updates have landed
/// (80% of the fleet).
pub const ASYNC_QUORUM_NUM: usize = 4;
/// Denominator of the async quorum fraction.
pub const ASYNC_QUORUM_DEN: usize = 5;

/// The async column's quorum for an `n`-device fleet: ⌈0.8 × n⌉.
pub fn async_quorum(n_devices: usize) -> usize {
    (n_devices * ASYNC_QUORUM_NUM).div_ceil(ASYNC_QUORUM_DEN)
}

/// One scenario's cost comparison (two trimmed objectives and the deadline
/// policy vs untrimmed).
#[derive(Debug, Clone)]
pub struct HeteroRow {
    /// Dataset name.
    pub dataset: String,
    /// Device scenario.
    pub scenario: Scenario,
    /// Simulated seconds per epoch, trimmed, node-count objective.
    pub makespan_tree_nodes: f64,
    /// Simulated seconds per epoch, trimmed, virtual-seconds objective.
    pub makespan_virtual_secs: f64,
    /// Simulated seconds per epoch, trimmed, node-count objective under
    /// the deadline aggregation policy ([`DEADLINE_FACTOR`]).
    pub makespan_deadline: f64,
    /// Simulated seconds per epoch, trimmed, node-count objective under
    /// the buffered policy ([`DEADLINE_FACTOR`], [`BUFFERED_DECAY`]).
    pub makespan_buffered: f64,
    /// Simulated seconds per epoch, trimmed, node-count objective under
    /// the barrier-free async quorum ([`async_quorum`] of the fleet).
    pub makespan_async: f64,
    /// Simulated seconds per epoch without tree trimming.
    pub makespan_untrimmed: f64,
    /// Mean device utilization under the node-count objective.
    pub utilization_tree_nodes: f64,
    /// Mean device utilization under the virtual-seconds objective.
    pub utilization_virtual_secs: f64,
    /// Mean device utilization without trimming.
    pub utilization_untrimmed: f64,
    /// Most frequent straggler (device id, epochs straggled) under the
    /// node-count objective.
    pub dominant_straggler: Option<(u32, usize)>,
    /// Device-rounds lost to churn.
    pub dropped_device_rounds: u64,
    /// Device-rounds dropped by the deadline policy (the participation
    /// price of `makespan_deadline`).
    pub late_drops: u64,
    /// Late updates the buffered run banked for a later round.
    pub buffered_updates: u64,
    /// Late updates the buffered run discarded forever (zero by
    /// construction — asserted by the CI smoke gate).
    pub wasted_updates: u64,
    /// Tree nodes the buffered run's live re-balancer moved off
    /// overloaded devices.
    pub migrated_nodes: u64,
    /// Overflow updates the async run carried into a later round (landed
    /// after the quorum closed; blended at full weight next round).
    pub async_carried: u64,
    /// Device-rounds the async run dropped — zero by construction (the
    /// quorum defers, never discards), asserted by the CI smoke gate.
    pub async_late_drops: u64,
    /// Updates the async run discarded forever — likewise zero by
    /// construction.
    pub async_wasted: u64,
}

impl HeteroRow {
    /// Absolute simulated seconds per epoch trimming saves — the win that
    /// grows as capability heterogeneity compounds degree heterogeneity.
    pub fn saved_secs(&self) -> f64 {
        self.makespan_untrimmed - self.makespan_tree_nodes
    }

    /// Absolute seconds per epoch the weighted objective saves on top of
    /// node-count trimming (positive when capability-awareness pays).
    pub fn weighted_win_secs(&self) -> f64 {
        self.makespan_tree_nodes - self.makespan_virtual_secs
    }

    /// Absolute seconds per epoch the deadline policy saves over the
    /// full-sync barrier on the same (node-count, trimmed) placement.
    pub fn deadline_win_secs(&self) -> f64 {
        self.makespan_tree_nodes - self.makespan_deadline
    }

    /// Absolute seconds per epoch the buffered policy saves over the
    /// full-sync barrier — the win that must survive buffering instead of
    /// discarding late work.
    pub fn buffered_win_secs(&self) -> f64 {
        self.makespan_tree_nodes - self.makespan_buffered
    }

    /// Absolute seconds per epoch the barrier-free async quorum saves over
    /// the full-sync barrier — bought without dropping or wasting a single
    /// update.
    pub fn async_win_secs(&self) -> f64 {
        self.makespan_tree_nodes - self.makespan_async
    }
}

fn eval_scenario(ds: &Dataset, scenario: Scenario, args: &HarnessArgs) -> HeteroRow {
    let base = cost_config(ds, scenario, args);
    let (nodes, vsecs) = (BalanceObjective::TreeNodes, BalanceObjective::VirtualSecs);
    let factor = DEADLINE_FACTOR;
    let decay = BUFFERED_DECAY;
    let min_updates = async_quorum(ds.num_nodes());
    // (objective, trimmed, policy) per column, in `HeteroRow` order.
    let settings = [
        (nodes, true, AggregationPolicy::FullSync),
        (vsecs, true, AggregationPolicy::FullSync),
        (nodes, true, AggregationPolicy::Deadline { factor }),
        (nodes, true, AggregationPolicy::Buffered { factor, decay }),
        (nodes, true, AggregationPolicy::Async { min_updates }),
        (nodes, false, AggregationPolicy::FullSync),
    ];
    let summaries = map_pairs(&settings, |&(objective, trim, policy)| {
        let mut cfg = base
            .clone()
            .with_balance_objective(objective)
            .with_aggregation_policy(policy);
        if !trim {
            cfg = cfg.without_tree_trimming();
        }
        run_lumos(ds, &cfg)
            .sim
            .expect("scenario configs always produce a sim summary")
    });
    let [tree_nodes, virtual_secs, deadline, buffered, asynced, untrimmed]: [SimSummary; 6] =
        summaries.try_into().expect("one summary per setting");
    HeteroRow {
        dataset: ds.name.clone(),
        scenario,
        makespan_tree_nodes: tree_nodes.avg_epoch_virtual_secs,
        makespan_virtual_secs: virtual_secs.avg_epoch_virtual_secs,
        makespan_deadline: deadline.avg_epoch_virtual_secs,
        makespan_buffered: buffered.avg_epoch_virtual_secs,
        makespan_async: asynced.avg_epoch_virtual_secs,
        makespan_untrimmed: untrimmed.avg_epoch_virtual_secs,
        utilization_tree_nodes: tree_nodes.mean_utilization,
        utilization_virtual_secs: virtual_secs.mean_utilization,
        utilization_untrimmed: untrimmed.mean_utilization,
        dominant_straggler: tree_nodes.dominant_straggler(),
        dropped_device_rounds: tree_nodes.dropped_device_rounds,
        late_drops: deadline.late_drops,
        buffered_updates: buffered.buffered_updates,
        wasted_updates: buffered.wasted_updates,
        migrated_nodes: buffered.migrated_nodes,
        async_carried: asynced.buffered_updates,
        async_late_drops: asynced.late_drops,
        async_wasted: asynced.wasted_updates,
    }
}

/// Runs the scenario sweep on the primary dataset. Quick mode restricts
/// the sweep to the three scenarios the CI smoke gate asserts on (uniform,
/// the straggler tail, and churn).
pub fn run(args: &HarnessArgs) -> Vec<HeteroRow> {
    let ds = Dataset::facebook_like(args.scale);
    let scenarios: &[Scenario] = if args.quick {
        &[Scenario::Uniform, Scenario::StragglerTail, Scenario::Churn]
    } else {
        &Scenario::ALL
    };
    scenarios
        .iter()
        .map(|&s| eval_scenario(&ds, s, args))
        .collect()
}

/// One cell of the buffered-policy sensitivity grid: a `(decay,
/// re-balance trigger)` setting and the accuracy × makespan it lands at.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Dataset name.
    pub dataset: String,
    /// Device scenario the cell ran under.
    pub scenario: Scenario,
    /// Staleness discount of the buffered policy (`decay^staleness`).
    pub decay: f64,
    /// Re-balance trigger threshold (× the fleet-mean per-node price).
    pub threshold: f64,
    /// Re-balance trigger patience (consecutive overpriced rounds).
    pub patience: u32,
    /// Test accuracy the cell converged to.
    pub accuracy: f64,
    /// Simulated seconds per epoch.
    pub makespan: f64,
    /// Late updates banked for a later round.
    pub buffered_updates: u64,
    /// Tree nodes the live re-balancer migrated.
    pub migrated_nodes: u64,
}

/// The sensitivity grid's decay values (quick mode trims the middle).
fn sensitivity_decays(quick: bool) -> &'static [f64] {
    if quick {
        &[0.3, 0.7]
    } else {
        &[0.3, 0.5, 0.7]
    }
}

/// The sensitivity grid's `(threshold, patience)` re-balance triggers.
fn sensitivity_triggers(quick: bool) -> &'static [(f64, u32)] {
    if quick {
        &[(1.5, 1), (2.0, 2)]
    } else {
        &[(1.5, 1), (2.0, 2), (3.0, 4)]
    }
}

fn eval_sensitivity_cell(
    ds: &Dataset,
    scenario: Scenario,
    decay: f64,
    threshold: f64,
    patience: u32,
    args: &HarnessArgs,
) -> SensitivityRow {
    let cfg = cost_config(ds, scenario, args)
        .with_aggregation_policy(AggregationPolicy::Buffered {
            factor: DEADLINE_FACTOR,
            decay,
        })
        .with_rebalance_trigger(threshold, patience);
    let report = run_lumos(ds, &cfg);
    let sim = report
        .sim
        .as_ref()
        .expect("scenario configs always produce a sim summary");
    SensitivityRow {
        dataset: ds.name.clone(),
        scenario,
        decay,
        threshold,
        patience,
        accuracy: report.test_metric,
        makespan: sim.avg_epoch_virtual_secs,
        buffered_updates: sim.buffered_updates,
        migrated_nodes: sim.migrated_nodes,
    }
}

/// Runs the buffered-policy sensitivity grid on the primary dataset:
/// every `decay × (threshold, patience)` cell under the straggler-tail
/// fleet (and, at full scale, churn — the fleet where the re-balance
/// trigger actually fires). Quick mode runs the 2×2 corner grid on the
/// straggler tail only.
pub fn run_sensitivity(args: &HarnessArgs) -> Vec<SensitivityRow> {
    let ds = Dataset::facebook_like(args.scale);
    let scenarios: &[Scenario] = if args.quick {
        &[Scenario::StragglerTail]
    } else {
        &[Scenario::StragglerTail, Scenario::Churn]
    };
    let cells: Vec<(Scenario, f64, f64, u32)> = scenarios
        .iter()
        .flat_map(|&s| {
            sensitivity_decays(args.quick).iter().flat_map(move |&d| {
                sensitivity_triggers(args.quick)
                    .iter()
                    .map(move |&(th, pa)| (s, d, th, pa))
            })
        })
        .collect();
    map_pairs(&cells, |&(s, d, th, pa)| {
        eval_sensitivity_cell(&ds, s, d, th, pa, args)
    })
}

impl Row for HeteroRow {
    const TITLE: &'static str =
        "Figure 8 (hetero): simulated epoch makespan by device scenario and balance objective";

    fn record(&self) -> Record {
        use Value::{Null, Num, Str, UInt};
        vec![
            ("dataset", Str(self.dataset.clone())),
            ("scenario", Str(self.scenario.name().into())),
            ("makespan_tree_nodes", Num(self.makespan_tree_nodes)),
            ("makespan_virtual_secs", Num(self.makespan_virtual_secs)),
            ("makespan_deadline", Num(self.makespan_deadline)),
            ("makespan_buffered", Num(self.makespan_buffered)),
            ("makespan_async", Num(self.makespan_async)),
            ("makespan_untrimmed", Num(self.makespan_untrimmed)),
            ("weighted_win_secs", Num(self.weighted_win_secs())),
            ("deadline_win_secs", Num(self.deadline_win_secs())),
            ("buffered_win_secs", Num(self.buffered_win_secs())),
            ("async_win_secs", Num(self.async_win_secs())),
            ("late_drops", UInt(self.late_drops)),
            ("buffered_updates", UInt(self.buffered_updates)),
            ("wasted_updates", UInt(self.wasted_updates)),
            ("migrated_nodes", UInt(self.migrated_nodes)),
            ("async_carried", UInt(self.async_carried)),
            ("async_late_drops", UInt(self.async_late_drops)),
            ("async_wasted", UInt(self.async_wasted)),
            ("saved_secs", Num(self.saved_secs())),
            ("utilization_tree_nodes", Num(self.utilization_tree_nodes)),
            (
                "utilization_virtual_secs",
                Num(self.utilization_virtual_secs),
            ),
            ("utilization_untrimmed", Num(self.utilization_untrimmed)),
            (
                "dominant_straggler",
                self.dominant_straggler
                    .map_or(Null, |(device, _)| UInt(device.into())),
            ),
            ("dropped_device_rounds", UInt(self.dropped_device_rounds)),
        ]
    }
}

impl Row for SensitivityRow {
    const TITLE: &'static str =
        "Buffered-policy sensitivity: accuracy × makespan across decay and re-balance trigger";

    fn record(&self) -> Record {
        use Value::{Num, Str, UInt};
        vec![
            ("dataset", Str(self.dataset.clone())),
            ("scenario", Str(self.scenario.name().into())),
            ("decay", Num(self.decay)),
            ("threshold", Num(self.threshold)),
            ("patience", UInt(self.patience.into())),
            ("accuracy", Num(self.accuracy)),
            ("makespan", Num(self.makespan)),
            ("buffered_updates", UInt(self.buffered_updates)),
            ("migrated_nodes", UInt(self.migrated_nodes)),
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
            quick: false,
            json: None,
            sensitivity: false,
        }
    }

    #[test]
    fn heterogeneity_raises_makespan_and_trimming_still_wins() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let args = smoke_args();
        let uniform = eval_scenario(&ds, Scenario::Uniform, &args);
        let tail = eval_scenario(&ds, Scenario::StragglerTail, &args);
        // Same workload, slower tail ⇒ strictly larger simulated makespan.
        assert!(
            uniform.makespan_tree_nodes < tail.makespan_tree_nodes,
            "uniform {} must undercut straggler-tail {}",
            uniform.makespan_tree_nodes,
            tail.makespan_tree_nodes
        );
        // Trimming reduces the simulated makespan in both regimes.
        for r in [&uniform, &tail] {
            assert!(
                r.makespan_tree_nodes < r.makespan_untrimmed,
                "{}: trimmed {} vs untrimmed {}",
                r.scenario.name(),
                r.makespan_tree_nodes,
                r.makespan_untrimmed
            );
        }
        // Trimming's absolute makespan win grows with heterogeneity: the
        // straggler's tree shrinks, and on a slow device every trimmed
        // node is worth more virtual seconds.
        assert!(
            tail.saved_secs() > uniform.saved_secs(),
            "saved secs must grow with heterogeneity: {} vs {}",
            tail.saved_secs(),
            uniform.saved_secs()
        );
        // The weighted objective strictly beats node counts once devices
        // stop being equals: the slow tail sheds tree nodes priced in µs.
        assert!(
            tail.makespan_virtual_secs < tail.makespan_tree_nodes,
            "straggler-tail: virtual-secs {} must beat tree-nodes {}",
            tail.makespan_virtual_secs,
            tail.makespan_tree_nodes
        );
        // The deadline policy cuts the barrier under a Pareto tail — and
        // pays for it in dropped device-rounds.
        assert!(
            tail.makespan_deadline < tail.makespan_tree_nodes,
            "straggler-tail: deadline {} must beat full-sync {}",
            tail.makespan_deadline,
            tail.makespan_tree_nodes
        );
        assert!(tail.late_drops > 0, "the tail must breach the deadline");
        assert!(tail.deadline_win_secs() > 0.0);
        // Buffering banks the tail's late updates instead of wasting them —
        // and keeps nearly all of the deadline's barrier win.
        assert!(tail.buffered_updates > 0);
        assert_eq!(tail.wasted_updates, 0);
        assert!(
            tail.buffered_win_secs() >= 0.95 * tail.deadline_win_secs(),
            "buffered win {} must keep ≥95% of deadline win {}",
            tail.buffered_win_secs(),
            tail.deadline_win_secs()
        );
        // The barrier-free quorum closes each round at the 80th-percentile
        // landing: it must beat the barrier, carry its overflow forward,
        // and neither drop nor waste a single update.
        assert!(
            tail.makespan_async < tail.makespan_tree_nodes,
            "straggler-tail: async {} must beat full-sync {}",
            tail.makespan_async,
            tail.makespan_tree_nodes
        );
        assert!(tail.async_carried > 0, "the overflow must be carried");
        assert_eq!(tail.async_late_drops, 0, "the quorum never drops");
        assert_eq!(tail.async_wasted, 0, "the quorum never wastes");
        assert_eq!(uniform.async_late_drops, 0);
        assert_eq!(uniform.async_wasted, 0);
        assert_eq!(emit::table(&[uniform, tail]).len(), 2);
    }

    #[test]
    fn sensitivity_grid_covers_every_cell_and_decay_trades_time_for_accuracy() {
        let mut args = smoke_args();
        args.quick = true;
        let grid = run_sensitivity(&args);
        // Quick mode: 2 decays × 2 triggers on the straggler tail only.
        assert_eq!(grid.len(), 4);
        for r in &grid {
            assert_eq!(r.scenario, Scenario::StragglerTail);
            assert!(r.makespan > 0.0, "cell must simulate: {r:?}");
            assert!(r.accuracy > 0.0, "cell must learn: {r:?}");
            assert!(r.buffered_updates > 0, "tail must breach the deadline");
        }
        // Every grid coordinate is distinct.
        let mut coords: Vec<(u64, u64, u32)> = grid
            .iter()
            .map(|r| (r.decay.to_bits(), r.threshold.to_bits(), r.patience))
            .collect();
        coords.sort_unstable();
        coords.dedup();
        assert_eq!(coords.len(), 4, "grid cells must not repeat");
        assert_eq!(emit::table(&grid).len(), 4);
    }

    #[test]
    fn churn_row_banks_updates_and_migrates() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let args = smoke_args();
        let churn = eval_scenario(&ds, Scenario::Churn, &args);
        assert!(churn.dropped_device_rounds > 0, "churn must bite");
        assert!(
            churn.buffered_updates > 0,
            "churned stragglers must land in the buffer"
        );
        assert_eq!(churn.wasted_updates, 0);
        assert!(
            churn.migrated_nodes > 0,
            "sustained absence must trigger live migration"
        );
    }

    /// The keys `.github/workflows/ci.yml`'s fig8 step reads off each row
    /// and each sensitivity cell: renaming one must fail here, not in a CI
    /// heredoc.
    #[test]
    fn record_carries_every_key_the_ci_gate_reads() {
        let args = smoke_args();
        let rows = vec![
            HeteroRow {
                dataset: "facebook-smoke".into(),
                scenario: Scenario::Uniform,
                makespan_tree_nodes: 10.25,
                makespan_virtual_secs: 10.25,
                makespan_deadline: 10.25,
                makespan_buffered: 10.25,
                makespan_async: 10.25,
                makespan_untrimmed: 20.5,
                utilization_tree_nodes: 0.8,
                utilization_virtual_secs: 0.8,
                utilization_untrimmed: 0.5,
                dominant_straggler: Some((3, 5)),
                dropped_device_rounds: 0,
                late_drops: 0,
                buffered_updates: 0,
                wasted_updates: 0,
                migrated_nodes: 0,
                async_carried: 0,
                async_late_drops: 0,
                async_wasted: 0,
            },
            HeteroRow {
                dataset: "facebook-smoke".into(),
                scenario: Scenario::StragglerTail,
                makespan_tree_nodes: 40.0,
                makespan_virtual_secs: 31.5,
                makespan_deadline: 12.5,
                makespan_buffered: 13.0,
                makespan_async: 14.0,
                makespan_untrimmed: 90.0,
                utilization_tree_nodes: 0.3,
                utilization_virtual_secs: 0.4,
                utilization_untrimmed: 0.2,
                dominant_straggler: None,
                dropped_device_rounds: 7,
                late_drops: 11,
                buffered_updates: 9,
                wasted_updates: 0,
                migrated_nodes: 4,
                async_carried: 6,
                async_late_drops: 0,
                async_wasted: 0,
            },
        ];
        let grid = vec![SensitivityRow {
            dataset: "facebook-smoke".into(),
            scenario: Scenario::StragglerTail,
            decay: 0.3,
            threshold: 1.5,
            patience: 1,
            accuracy: 0.61,
            makespan: 12.75,
            buffered_updates: 9,
            migrated_nodes: 2,
        }];
        emit::tests::assert_has_keys(
            &rows[0].record(),
            &[
                "scenario",
                "makespan_tree_nodes",
                "makespan_virtual_secs",
                "makespan_deadline",
                "makespan_buffered",
                "makespan_async",
                "late_drops",
                "wasted_updates",
                "buffered_updates",
                "buffered_win_secs",
                "deadline_win_secs",
                "async_carried",
                "async_late_drops",
                "async_wasted",
            ],
        );
        emit::tests::assert_has_keys(
            &grid[0].record(),
            &[
                "scenario",
                "decay",
                "threshold",
                "patience",
                "accuracy",
                "makespan",
            ],
        );
        let sections = vec![
            ("rows", emit::rows(&rows)),
            ("sensitivity", emit::rows(&grid)),
        ];
        let json = emit::document("fig8_hetero", Some(args.scale), &args, sections).render();
        assert!(json.contains("\"bench\": \"fig8_hetero\""));
        assert!(json.contains("\"scenario\": \"straggler-tail\""));
        assert!(json.contains("\"dominant_straggler\": null"));
        assert!(json.contains("\"weighted_win_secs\": 8.5"));
        assert!(json.contains("\"deadline_win_secs\": 27.5"));
        assert!(json.contains("\"buffered_win_secs\": 27.0"));
        assert!(json.contains("\"async_win_secs\": 26.0"));
        assert!(json.contains("\"late_drops\": 11"));
        assert!(json.contains("\"buffered_updates\": 9"));
        assert!(json.contains("\"wasted_updates\": 0"));
        assert!(json.contains("\"migrated_nodes\": 4"));
        assert!(json.contains("\"async_carried\": 6"));
        assert!(json.contains("\"async_late_drops\": 0"));
        assert!(json.contains("\"sensitivity\": ["));
        assert!(json.contains("\"decay\": 0.3"));
        assert!(json.contains("\"threshold\": 1.5"));
        assert!(json.contains("\"accuracy\": 0.61"));
    }
}
