//! Run reports: everything the experiment harness needs to regenerate the
//! paper's figures from one training run, as two records. [`RunReport`] is
//! bit-pinned — same seed and config, same report, every field digested —
//! and [`RunFootprint`] is measured: the run's wall seconds and bytes.

use lumos_crypto::CommMeter;

/// Metrics recorded at an evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMetrics {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Training loss at this epoch.
    pub loss: f64,
    /// Validation metric (accuracy or AUC, per task).
    pub val_metric: f64,
}

/// Statistics of the tree-construction phase.
#[derive(Debug, Clone, Default)]
pub struct ConstructorReport {
    /// Whether trimming ran (false for "w.o. TT").
    pub trimmed: bool,
    /// Whether the balancers actually ran cost-weighted. False when the
    /// `VirtualSecs` objective silently degenerated to node counts because
    /// no scenario supplied device profiles — check this before citing
    /// weighted-balancing numbers.
    pub weighted: bool,
    /// Workload per device after construction (Fig. 7's trimmed series).
    pub workloads: Vec<usize>,
    /// Objective `max_u wl(u)` after construction.
    pub max_workload: usize,
    /// Weighted objective `max_u c_u·|N_u|` (fixed-point µs) after
    /// construction; equals `max_workload` under the node-count objective.
    pub max_weighted_workload: u64,
    /// Objective before trimming (= max degree).
    pub untrimmed_max: usize,
    /// Secure-comparison communication (greedy + MCMC + Alg. 3).
    pub secure_comm: CommMeter,
    /// Number of secure comparisons executed.
    pub comparisons: u64,
    /// Device↔server messages during Alg. 3 coordination.
    pub server_messages: u64,
    /// MCMC objective trace (empty when trimming is off).
    pub mcmc_trace: Vec<usize>,
}

/// Where a run's wall time and memory went — measured and computed beside
/// the [`RunReport`], never part of it: nothing here is digested, and every
/// wall-clock number a run yields is here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunFootprint {
    /// Wall seconds per phase, in first-entered order; a phase entered every
    /// epoch accumulates.
    pub phase_secs: Vec<(&'static str, f64)>,
    /// Epochs the run trained.
    pub epochs: usize,
    /// Bytes the run's own state held when it ended, per owner, computed
    /// `len × size_of` (no allocator hook). The dataset is the caller's and
    /// is not listed.
    pub bytes: Vec<(&'static str, u64)>,
}

impl RunFootprint {
    /// The phases a training round passes through, open to close: the
    /// round's bookkeeping, a migration's re-plant and the update itself.
    /// `evaluate` is entered inside the epoch loop too and is not a cost of
    /// training.
    pub const EPOCH_PHASES: [&'static str; 4] =
        ["round", "regrow_exchange", "regrow_batch_build", "step"];

    /// Wall seconds per training epoch (Fig. 8b): the
    /// [`RunFootprint::EPOCH_PHASES`] over the epochs trained; 0 for a run
    /// that trained none.
    pub fn secs_per_epoch(&self) -> f64 {
        let phases = self.phase_secs.iter();
        let in_loop = phases.filter(|(phase, _)| Self::EPOCH_PHASES.contains(phase));
        match self.epochs {
            0 => 0.0,
            n => in_loop.map(|&(_, secs)| secs).sum::<f64>() / n as f64,
        }
    }
}

/// One training round as it closed: the ledger window, the cost model's
/// price for it, the loss of its update and — under a scenario — what the
/// round's simulation decided. Scalars only, so a run's log stays O(epochs)
/// whatever the fleet size; all of it deterministic under the run seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Messages on the ledger this round, carried-in traffic included.
    pub messages: u64,
    /// Bytes on the ledger this round.
    pub bytes: u64,
    /// `messages` per device — what Fig. 8a averages.
    pub messages_per_device: f64,
    /// Cost-model makespan (straggler units).
    pub makespan: f64,
    /// Cost-model mean device cost.
    pub mean_cost: f64,
    /// Training loss of the round's update.
    pub loss: f64,
    /// Validation metric, at evaluation rounds.
    pub val_metric: Option<f64>,
    /// The round's simulation (`None` without a scenario).
    pub sim: Option<RoundSim>,
}

/// What one simulated round decided. Every device that is `active` forms
/// an update, and each update is accounted exactly once:
/// `active = pooled + carried + crashed + discarded`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundSim {
    /// Virtual seconds until the round closed (tier-extended).
    pub makespan_secs: f64,
    /// The aggregator → server hop's share of `makespan_secs`.
    pub tier2_secs: f64,
    /// The device whose event closed the device tier.
    pub straggler: Option<u32>,
    /// Mean fraction of `makespan_secs` the active devices spent busy.
    pub utilization: f64,
    /// Events the round's schedule processed before it closed.
    pub events: u64,
    /// Devices that took part (available this round).
    pub active: u64,
    /// Devices churned out this round.
    pub absent: u64,
    /// On-time updates in this round's POOL.
    pub pooled: u64,
    /// Devices that crashed mid-round.
    pub crashed: u64,
    /// Updates the policy cut from the barrier, discarded or carried.
    pub cut: u64,
    /// Cut updates the policy then discarded.
    pub discarded: u64,
    /// Updates carried to a later round: carried cuts, the async quorum's
    /// overflow, and the `exhausted` uploads.
    pub carried: u64,
    /// Uploads that ran out their retry budget.
    pub exhausted: u64,
    /// Carried updates of earlier rounds pooled in this one.
    pub arrived: u64,
    /// Carried updates still waiting after this round. On the run's last
    /// record: updates that were carried and never pooled.
    pub in_flight: u64,
    /// Send attempts lost in transit.
    pub lost_messages: u64,
    /// Retransmissions scheduled by the recovery policy.
    pub retries: u64,
    /// Virtual seconds of timeout + backoff + jitter before the retries.
    pub retry_secs: f64,
    /// Shards served by a successor aggregator during an outage.
    pub failovers: u64,
    /// Tree nodes the re-balancer moved off overloaded devices before
    /// this round.
    pub migrated_nodes: u64,
}

impl RoundRecord {
    /// FNV-1a over the record's `Debug` rendering — every field, floats
    /// shortest-round-trip, so equal digests mean bit-equal records and a
    /// field added later is covered without being listed here.
    fn digest(&self) -> u64 {
        fnv1a(format!("{self:?}").bytes().map(u64::from))
    }
}

/// Summary of a run's heterogeneous-device simulation (present when the
/// config set a `lumos_sim::Scenario`): the run's [`RoundRecord`]s, folded
/// by [`RunReport::fold_rounds`] — the only place one is built.
///
/// All times are *virtual* seconds from the discrete-event simulator —
/// deterministic under the run seed; measured wall time is
/// [`RunFootprint`]'s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimSummary {
    /// Scenario name ("uniform", "mobile-fleet", "straggler-tail", "churn").
    pub scenario: String,
    /// Total simulated seconds across all training epochs.
    pub total_virtual_secs: f64,
    /// Mean simulated seconds per epoch (the scenario-sweep makespan).
    pub avg_epoch_virtual_secs: f64,
    /// Per-epoch straggler identity, in epoch order.
    pub straggler_sequence: Vec<u32>,
    /// Mean fraction of each epoch active devices spent busy.
    pub mean_utilization: f64,
    /// Device-rounds lost to churn (0 for churn-free scenarios).
    pub dropped_device_rounds: u64,
    /// Device-rounds cut from a barrier by the aggregation policy — every
    /// cut, whether the update was then discarded (`Deadline`: equals
    /// `wasted_updates`) or parked for a later round (`Buffered`: counted
    /// again in `buffered_updates`, wasting nothing). 0 under the default
    /// full-sync barrier and under the async quorum, which closes early
    /// instead of cutting.
    pub late_drops: u64,
    /// Updates carried towards a later round's POOL instead of being
    /// discarded: the buffered policy's cuts, the async quorum's overflow,
    /// and uploads that ran out their retry budget. Counted when carried,
    /// not when pooled: an update carried in the run's last rounds is still
    /// in flight when the run ends — the last record's
    /// [`RoundSim::in_flight`] — and is never pooled.
    pub buffered_updates: u64,
    /// Late updates discarded forever — the deadline policy's drops (0
    /// under full-sync, and 0 by construction under buffered).
    pub wasted_updates: u64,
    /// Live re-balance events: rounds in which sustained overload moved
    /// tree nodes off a device (buffered policy only).
    pub migrations: u64,
    /// Tree nodes moved off overloaded devices across all migrations.
    pub migrated_nodes: u64,
    /// Injected message losses across the run — every lost transmission
    /// attempt, including each retry that was itself lost (0 without a
    /// `FaultSpec`).
    pub lost_messages: u64,
    /// Retransmissions scheduled by the recovery policy.
    pub retries: u64,
    /// Virtual seconds spent waiting in timeout + backoff + jitter before
    /// retransmitting.
    pub retry_secs: f64,
    /// Devices that crashed mid-round across the run (device-rounds; the
    /// same device crashing twice counts twice).
    pub crashed_devices: u64,
    /// Aggregator failovers: shard-rounds served by a successor
    /// aggregator because the home aggregator was inside an outage
    /// window.
    pub failovers: u64,
}

impl SimSummary {
    /// Folds a scenario run's records into its summary. Every float fold
    /// is a sum in round order: `Iterator::sum` (then one division for the
    /// means), `+=` from `0.0` for `retry_secs`.
    fn fold(scenario: &str, rounds: &[RoundRecord]) -> Self {
        let sims = || rounds.iter().filter_map(|r| r.sim.as_ref());
        let total = |f: fn(&RoundSim) -> u64| sims().map(f).sum::<u64>();
        Self {
            scenario: scenario.to_string(),
            total_virtual_secs: sims().map(|s| s.makespan_secs).sum(),
            avg_epoch_virtual_secs: mean(sims().map(|s| s.makespan_secs)),
            straggler_sequence: sims().filter_map(|s| s.straggler).collect(),
            mean_utilization: mean(sims().map(|s| s.utilization)),
            dropped_device_rounds: total(|s| s.absent),
            late_drops: total(|s| s.cut),
            buffered_updates: total(|s| s.carried),
            wasted_updates: total(|s| s.discarded),
            migrations: total(|s| u64::from(s.migrated_nodes > 0)),
            migrated_nodes: total(|s| s.migrated_nodes),
            lost_messages: total(|s| s.lost_messages),
            retries: total(|s| s.retries),
            retry_secs: sims().fold(0.0, |acc, s| acc + s.retry_secs),
            crashed_devices: total(|s| s.crashed),
            failovers: total(|s| s.failovers),
        }
    }

    /// The device that straggled most often, with its epoch count.
    pub fn dominant_straggler(&self) -> Option<(u32, usize)> {
        // BTreeMap keeps the tally iteration key-ordered; the max_by_key
        // tie-break below is then order-independent by construction.
        let mut counts = std::collections::BTreeMap::new();
        for &d in &self.straggler_sequence {
            *counts.entry(d).or_insert(0usize) += 1;
        }
        // Deterministic tie-break: highest count, then lowest device id.
        counts
            .into_iter()
            .max_by_key(|&(d, c)| (c, std::cmp::Reverse(d)))
    }
}

/// Full report of a Lumos (or baseline) run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// System name ("lumos", "centralized", "lpgnn", "naive-fedgnn", …).
    pub system: String,
    /// Dataset name.
    pub dataset: String,
    /// Backbone name ("GCN"/"GAT").
    pub backbone: String,
    /// Task name ("supervised"/"unsupervised").
    pub task: String,
    /// Test metric at the end of training (accuracy ∈ \[0,1\] or AUC).
    pub test_metric: f64,
    /// Best validation metric seen.
    pub best_val_metric: f64,
    /// Per-evaluation-point history.
    pub history: Vec<EpochMetrics>,
    /// Average inter-device messages per device per epoch (Fig. 8a).
    pub avg_messages_per_device_per_epoch: f64,
    /// Average modeled makespan per epoch (straggler units).
    pub avg_epoch_makespan: f64,
    /// Tree-constructor statistics (empty/default for baselines).
    pub constructor: ConstructorReport,
    /// One-off feature-exchange messages (LDP initialization phase).
    pub init_messages: u64,
    /// Heterogeneous-device simulation summary (None without a scenario).
    pub sim: Option<SimSummary>,
    /// One record per training round, in epoch order (`run_lumos` only; the
    /// baselines leave it empty). `avg_messages_per_device_per_epoch`,
    /// `avg_epoch_makespan` and `sim` are folds over it.
    pub rounds: Vec<RoundRecord>,
}

impl RunReport {
    /// Creates an empty report shell for a system/dataset/backbone/task.
    pub fn new(system: &str, dataset: &str, backbone: &str, task: &str) -> Self {
        Self {
            system: system.into(),
            dataset: dataset.into(),
            backbone: backbone.into(),
            task: task.into(),
            test_metric: 0.0,
            best_val_metric: 0.0,
            history: Vec::new(),
            avg_messages_per_device_per_epoch: 0.0,
            avg_epoch_makespan: 0.0,
            constructor: ConstructorReport::default(),
            init_messages: 0,
            sim: None,
            rounds: Vec::new(),
        }
    }

    /// Sets the run-level folds over `rounds`: the two per-epoch means, and
    /// the simulation summary of a run on `scenario`.
    pub fn fold_rounds(&mut self, scenario: Option<&str>) {
        let rounds = self.rounds.iter();
        self.avg_messages_per_device_per_epoch =
            mean(rounds.clone().map(|r| r.messages_per_device));
        self.avg_epoch_makespan = mean(rounds.map(|r| r.makespan));
        self.sim = scenario.map(|name| SimSummary::fold(name, &self.rounds));
    }

    /// Books one evaluation after `epoch`: `metrics` holds the validation
    /// metric and, after the last epoch, the test metric behind it — the
    /// scores of `EvalCadence::splits_after`, in its order.
    pub fn record_eval(&mut self, epoch: usize, loss: f64, metrics: &[f64]) {
        let val_metric = metrics[0];
        self.best_val_metric = self.best_val_metric.max(val_metric);
        self.history.push(EpochMetrics {
            epoch,
            loss,
            val_metric,
        });
        if let Some(&test_metric) = metrics.get(1) {
            self.test_metric = test_metric;
        }
    }

    /// Final training loss (NaN if no history).
    pub fn final_loss(&self) -> f64 {
        self.history.last().map_or(f64::NAN, |m| m.loss)
    }

    /// One number for "same seed + same config ⇒ same report": FNV-1a over
    /// every run-level field, floats by bit pattern. `rounds` alone is not
    /// folded: it is covered through its folds (`sim` and the two per-epoch
    /// means) and pinned record by record by [`RunReport::rounds_digest`],
    /// so adding a record field never moves this number.
    pub fn digest(&self) -> u64 {
        fnv1a(self.field_digests().into_iter().map(|(_, d)| d))
    }

    /// FNV-1a over every field of every round record, in epoch order.
    pub fn rounds_digest(&self) -> u64 {
        fnv1a(self.rounds.iter().map(RoundRecord::digest))
    }

    /// The first round on which the two reports' records differ (bit
    /// patterns, not float equality) — a missing round differs from a
    /// present one. `None` when `rounds` is bit-identical. The first
    /// differing round *is* the bug.
    pub fn first_divergent_round(&self, other: &RunReport) -> Option<usize> {
        let (mine, theirs) = (&self.rounds, &other.rounds);
        (0..mine.len().max(theirs.len())).find(|&i| {
            mine.get(i).map(RoundRecord::digest) != theirs.get(i).map(RoundRecord::digest)
        })
    }

    /// The first field (in declaration order, `sim.*` last) on which the
    /// two reports differ — what to print when their digests disagree.
    /// `None` when every digested field matches.
    pub fn first_difference(&self, other: &RunReport) -> Option<&'static str> {
        let (mine, theirs) = (self.field_digests(), other.field_digests());
        // A missing `sim` shows up as `sim.is_some`, before the lengths
        // diverge, so zipping never hides a difference.
        mine.iter()
            .zip(&theirs)
            .find(|(a, b)| a != b)
            .map(|(a, _)| a.0)
    }

    /// The per-field digests [`RunReport::digest`] folds, in a fixed order.
    /// The three records are destructured without `..`: a field added later
    /// is digested here or does not compile.
    fn field_digests(&self) -> Vec<(&'static str, u64)> {
        fn text(s: &str) -> u64 {
            fnv1a(s.bytes().map(u64::from))
        }
        fn counts(xs: &[usize]) -> u64 {
            fnv1a(xs.iter().map(|&x| x as u64))
        }
        let RunReport {
            system,
            dataset,
            backbone,
            task,
            test_metric,
            best_val_metric,
            history,
            avg_messages_per_device_per_epoch,
            avg_epoch_makespan,
            constructor,
            init_messages,
            sim,
            // Waived: pinned by `rounds_digest`, and folded into `sim` and
            // the two means above.
            rounds: _,
        } = self;
        let ConstructorReport {
            trimmed,
            weighted,
            workloads,
            max_workload,
            max_weighted_workload,
            untrimmed_max,
            secure_comm,
            comparisons,
            server_messages,
            mcmc_trace,
        } = constructor;
        let history = history
            .iter()
            .flat_map(|h| [h.epoch as u64, h.loss.to_bits(), h.val_metric.to_bits()]);
        let secure_comm = [secure_comm.messages, secure_comm.bytes, secure_comm.rounds];
        let mut fields = vec![
            ("system", text(system)),
            ("dataset", text(dataset)),
            ("backbone", text(backbone)),
            ("task", text(task)),
            ("test_metric", test_metric.to_bits()),
            ("best_val_metric", best_val_metric.to_bits()),
            ("history", fnv1a(history)),
            (
                "avg_messages_per_device_per_epoch",
                avg_messages_per_device_per_epoch.to_bits(),
            ),
            ("avg_epoch_makespan", avg_epoch_makespan.to_bits()),
            ("constructor.trimmed", u64::from(*trimmed)),
            ("constructor.weighted", u64::from(*weighted)),
            ("constructor.workloads", counts(workloads)),
            ("constructor.max_workload", *max_workload as u64),
            ("constructor.max_weighted_workload", *max_weighted_workload),
            ("constructor.untrimmed_max", *untrimmed_max as u64),
            ("constructor.secure_comm", fnv1a(secure_comm)),
            ("constructor.comparisons", *comparisons),
            ("constructor.server_messages", *server_messages),
            ("constructor.mcmc_trace", counts(mcmc_trace)),
            ("init_messages", *init_messages),
            ("sim.is_some", u64::from(sim.is_some())),
        ];
        if let Some(summary) = sim {
            let SimSummary {
                scenario,
                total_virtual_secs,
                avg_epoch_virtual_secs,
                straggler_sequence,
                mean_utilization,
                dropped_device_rounds,
                late_drops,
                buffered_updates,
                wasted_updates,
                migrations,
                migrated_nodes,
                lost_messages,
                retries,
                retry_secs,
                crashed_devices,
                failovers,
            } = summary;
            let stragglers = straggler_sequence.iter().map(|&d| u64::from(d));
            fields.extend([
                ("sim.scenario", text(scenario)),
                ("sim.total_virtual_secs", total_virtual_secs.to_bits()),
                (
                    "sim.avg_epoch_virtual_secs",
                    avg_epoch_virtual_secs.to_bits(),
                ),
                ("sim.straggler_sequence", fnv1a(stragglers)),
                ("sim.mean_utilization", mean_utilization.to_bits()),
                ("sim.dropped_device_rounds", *dropped_device_rounds),
                ("sim.late_drops", *late_drops),
                ("sim.buffered_updates", *buffered_updates),
                ("sim.wasted_updates", *wasted_updates),
                ("sim.migrations", *migrations),
                ("sim.migrated_nodes", *migrated_nodes),
                ("sim.lost_messages", *lost_messages),
                ("sim.retries", *retries),
                ("sim.retry_secs", retry_secs.to_bits()),
                ("sim.crashed_devices", *crashed_devices),
                ("sim.failovers", *failovers),
            ]);
        }
        fields
    }
}

/// The mean of `values`: `Iterator::sum` in order, then one division; 0 for
/// none.
fn mean(values: impl Iterator<Item = f64> + Clone) -> f64 {
    match values.clone().count() {
        0 => 0.0,
        n => values.sum::<f64>() / n as f64,
    }
}

/// FNV-1a (64-bit) over the little-endian bytes of a word stream, closed
/// with the stream length so a prefix never collides with the whole.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |w: u64| {
        for b in w.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut len = 0u64;
    for w in words {
        mix(w);
        len += 1;
    }
    mix(len);
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shell_and_history() {
        let mut r = RunReport::new("lumos", "facebook", "GCN", "supervised");
        assert!(r.final_loss().is_nan());
        r.history.push(EpochMetrics {
            epoch: 0,
            loss: 1.5,
            val_metric: 0.4,
        });
        r.history.push(EpochMetrics {
            epoch: 10,
            loss: 0.7,
            val_metric: 0.6,
        });
        assert_eq!(r.final_loss(), 0.7);
        assert_eq!(r.system, "lumos");
        assert!(r.sim.is_none());
    }

    #[test]
    fn digest_moves_with_every_field_by_bit_pattern() {
        let base = RunReport::new("lumos", "facebook", "GCN", "supervised");
        assert_eq!(base.first_difference(&base.clone()), None);
        let first_diff = |other: &RunReport| {
            assert_ne!(base.digest(), other.digest());
            base.first_difference(other)
        };
        let mut loss = base.clone();
        loss.history.push(EpochMetrics {
            epoch: 0,
            loss: 0.5,
            val_metric: 0.0,
        });
        assert_eq!(first_diff(&loss), Some("history"));
        // -0.0 == 0.0 as floats; the digest compares bit patterns.
        let mut signed = base.clone();
        signed.test_metric = -0.0;
        assert_eq!(first_diff(&signed), Some("test_metric"));
        let mut sim = base.clone();
        sim.sim = Some(SimSummary::default());
        assert_eq!(first_diff(&sim), Some("sim.is_some"));
        let mut retried = sim.clone();
        retried.sim.as_mut().unwrap().retries = 1;
        assert_ne!(sim.digest(), retried.digest());
    }

    #[test]
    fn rounds_fold_to_the_summary_and_diverge_by_bit_pattern() {
        let round = |epoch, migrated_nodes, retry_secs| RoundRecord {
            epoch,
            messages: 4,
            bytes: 256,
            messages_per_device: 2.0,
            makespan: 3.0,
            mean_cost: 1.5,
            loss: 0.0,
            val_metric: None,
            sim: Some(RoundSim {
                makespan_secs: 2.0,
                straggler: Some(7),
                cut: 3,
                carried: 2,
                discarded: 1,
                migrated_nodes,
                retry_secs,
                ..RoundSim::default()
            }),
        };
        let mut r = RunReport::new("lumos", "facebook", "GCN", "supervised");
        r.rounds = vec![round(0, 0, 0.25), round(1, 5, 0.5), round(2, 9, 0.0)];
        r.fold_rounds(Some("churn"));
        assert_eq!(r.avg_messages_per_device_per_epoch, 2.0);
        assert_eq!(r.avg_epoch_makespan, 3.0);
        let sim = r.sim.clone().expect("a scenario run folds a summary");
        assert_eq!(sim.scenario, "churn");
        assert_eq!(
            (sim.total_virtual_secs, sim.avg_epoch_virtual_secs),
            (6.0, 2.0)
        );
        assert_eq!(sim.straggler_sequence, vec![7, 7, 7]);
        assert_eq!(
            (sim.late_drops, sim.buffered_updates, sim.wasted_updates),
            (9, 6, 3)
        );
        assert_eq!((sim.migrations, sim.migrated_nodes), (2, 14));
        assert_eq!(sim.retry_secs, 0.75);
        // No scenario, no summary; no rounds, zero means.
        let mut plain = RunReport::new("lumos", "facebook", "GCN", "supervised");
        plain.fold_rounds(None);
        assert!(plain.sim.is_none());
        assert_eq!(plain.avg_epoch_makespan, 0.0);

        assert_eq!(r.first_divergent_round(&r.clone()), None);
        let mut signed = r.clone();
        signed.rounds[1].loss = -0.0;
        assert_eq!(r.first_divergent_round(&signed), Some(1), "-0.0 is not 0.0");
        assert_ne!(r.rounds_digest(), signed.rounds_digest());
        assert_eq!(r.digest(), signed.digest(), "digest() does not fold rounds");
        let mut short = r.clone();
        short.rounds.pop();
        assert_eq!(
            r.first_divergent_round(&short),
            Some(2),
            "a missing round differs"
        );
    }

    #[test]
    fn dominant_straggler_breaks_ties_deterministically() {
        let s = SimSummary {
            straggler_sequence: vec![4, 2, 4, 2, 9],
            ..SimSummary::default()
        };
        // Devices 2 and 4 tie on count; the lower id wins.
        assert_eq!(s.dominant_straggler(), Some((2, 2)));
        assert_eq!(SimSummary::default().dominant_straggler(), None);
    }
}
