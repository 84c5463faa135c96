//! Run reports: everything the experiment harness needs to regenerate the
//! paper's figures from one training run.

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
    /// Wall seconds spent constructing.
    pub wall_secs: f64,
    /// MCMC objective trace (empty when trimming is off).
    pub mcmc_trace: Vec<usize>,
}

/// Summary of a run's heterogeneous-device simulation (present when the
/// config set a `lumos_sim::Scenario`).
///
/// All times are *virtual* seconds from the discrete-event simulator —
/// deterministic under the run seed, unlike the measured wall-clock fields.
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
    /// Late updates blended into a later round's POOL by the buffered
    /// policy instead of being discarded (0 under full-sync and deadline).
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
    /// Average wall seconds per training epoch (Fig. 8b).
    pub avg_epoch_secs: f64,
    /// Average modeled makespan per epoch (straggler units).
    pub avg_epoch_makespan: f64,
    /// Tree-constructor statistics (empty/default for baselines).
    pub constructor: ConstructorReport,
    /// One-off feature-exchange messages (LDP initialization phase).
    pub init_messages: u64,
    /// Heterogeneous-device simulation summary (None without a scenario).
    pub sim: Option<SimSummary>,
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
            avg_epoch_secs: 0.0,
            avg_epoch_makespan: 0.0,
            constructor: ConstructorReport::default(),
            init_messages: 0,
            sim: None,
        }
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
    /// every deterministic field, floats by bit pattern. The wall-clock
    /// fields (`avg_epoch_secs`, `constructor.wall_secs`) are the only ones
    /// left out.
    pub fn digest(&self) -> u64 {
        fnv1a(self.field_digests().into_iter().map(|(_, d)| d))
    }

    /// The first deterministic field (in declaration order, `sim.*` last)
    /// on which the two reports differ — what to print when their digests
    /// disagree. `None` when every digested field matches.
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
    fn field_digests(&self) -> Vec<(&'static str, u64)> {
        fn text(s: &str) -> u64 {
            fnv1a(s.bytes().map(u64::from))
        }
        fn counts(xs: &[usize]) -> u64 {
            fnv1a(xs.iter().map(|&x| x as u64))
        }
        let c = &self.constructor;
        let mut fields = vec![
            ("system", text(&self.system)),
            ("dataset", text(&self.dataset)),
            ("backbone", text(&self.backbone)),
            ("task", text(&self.task)),
            ("test_metric", self.test_metric.to_bits()),
            ("best_val_metric", self.best_val_metric.to_bits()),
            (
                "history",
                fnv1a(
                    self.history
                        .iter()
                        .flat_map(|h| [h.epoch as u64, h.loss.to_bits(), h.val_metric.to_bits()]),
                ),
            ),
            (
                "avg_messages_per_device_per_epoch",
                self.avg_messages_per_device_per_epoch.to_bits(),
            ),
            ("avg_epoch_makespan", self.avg_epoch_makespan.to_bits()),
            ("constructor.trimmed", u64::from(c.trimmed)),
            ("constructor.weighted", u64::from(c.weighted)),
            ("constructor.workloads", counts(&c.workloads)),
            ("constructor.max_workload", c.max_workload as u64),
            ("constructor.max_weighted_workload", c.max_weighted_workload),
            ("constructor.untrimmed_max", c.untrimmed_max as u64),
            (
                "constructor.secure_comm",
                fnv1a([
                    c.secure_comm.messages,
                    c.secure_comm.bytes,
                    c.secure_comm.rounds,
                ]),
            ),
            ("constructor.comparisons", c.comparisons),
            ("constructor.server_messages", c.server_messages),
            ("constructor.mcmc_trace", counts(&c.mcmc_trace)),
            ("init_messages", self.init_messages),
            ("sim.is_some", u64::from(self.sim.is_some())),
        ];
        if let Some(s) = &self.sim {
            fields.extend([
                ("sim.scenario", text(&s.scenario)),
                ("sim.total_virtual_secs", s.total_virtual_secs.to_bits()),
                (
                    "sim.avg_epoch_virtual_secs",
                    s.avg_epoch_virtual_secs.to_bits(),
                ),
                (
                    "sim.straggler_sequence",
                    fnv1a(s.straggler_sequence.iter().map(|&d| u64::from(d))),
                ),
                ("sim.mean_utilization", s.mean_utilization.to_bits()),
                ("sim.dropped_device_rounds", s.dropped_device_rounds),
                ("sim.late_drops", s.late_drops),
                ("sim.buffered_updates", s.buffered_updates),
                ("sim.wasted_updates", s.wasted_updates),
                ("sim.migrations", s.migrations),
                ("sim.migrated_nodes", s.migrated_nodes),
                ("sim.lost_messages", s.lost_messages),
                ("sim.retries", s.retries),
                ("sim.retry_secs", s.retry_secs.to_bits()),
                ("sim.crashed_devices", s.crashed_devices),
                ("sim.failovers", s.failovers),
            ]);
        }
        fields
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
    fn digest_covers_deterministic_fields_and_skips_wall_clock() {
        let base = RunReport::new("lumos", "facebook", "GCN", "supervised");
        let mut wall = base.clone();
        wall.avg_epoch_secs = 3.5;
        wall.constructor.wall_secs = 1.25;
        assert_eq!(base.digest(), wall.digest(), "wall-clock fields are exempt");

        assert_eq!(base.first_difference(&wall), None);
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
