//! Configuration of a Lumos run.

use lumos_balance::{BalanceObjective, CompareBackend, SecurityMode};
use lumos_gnn::Backbone;
use lumos_sim::{AggregationPolicy, FaultSpec, RecoveryPolicy, Scenario};
use lumos_topo::TopologyConfig;

/// Returns the [`ConfigError`] naming `field` from the enclosing function
/// unless `holds`; the rule is formatted only when it is broken.
macro_rules! ensure {
    ($field:expr, $holds:expr, $($rule:tt)+) => {
        if !$holds {
            return Err(ConfigError {
                field: $field,
                rule: format!($($rule)+),
            });
        }
    };
}

/// Learning task (§VIII-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Node classification with local labels (cross-entropy).
    Supervised,
    /// Link prediction with negative sampling (Eq. 33).
    Unsupervised,
}

impl TaskKind {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Supervised => "supervised",
            TaskKind::Unsupervised => "unsupervised",
        }
    }

    /// The Adam learning rate every system trains this task at. The paper
    /// trains everything at 0.01; on this substrate the unsupervised
    /// dot-product decoder occasionally collapses to the trivial solution
    /// at that rate (dead ReLUs pin the loss at ln 2), so link prediction
    /// trains at 0.003 — Lumos and every baseline alike.
    pub fn lr(self) -> f32 {
        match self {
            TaskKind::Supervised => 0.01,
            TaskKind::Unsupervised => 0.003,
        }
    }
}

/// Full configuration of a Lumos run. Defaults follow §VIII-B.
#[derive(Debug, Clone)]
pub struct LumosConfig {
    /// GNN backbone.
    pub backbone: Backbone,
    /// Learning task.
    pub task: TaskKind,
    /// Privacy budget ε for the feature encoder (2 in the paper).
    pub epsilon: f64,
    /// Training epochs (300 in the paper; scaled presets use fewer).
    pub epochs: usize,
    /// Adam learning rate ([`TaskKind::lr`] by default).
    pub lr: f32,
    /// MCMC iterations for the tree constructor (1,000 Facebook / 300
    /// LastFM in the paper).
    pub mcmc_iterations: usize,
    /// Whether to run the real simulated crypto or its exact cost model.
    pub security: SecurityMode,
    /// Which secure-comparison engine backs the tree constructor's
    /// oracles. The default `Scalar` evaluates one circuit per comparison
    /// and preserves the seed → bit-identical report/meter contract;
    /// `Bitsliced` packs 64 independent comparisons per circuit (identical
    /// outcomes, ~64× fewer OT messages on batched sweeps).
    pub compare_backend: CompareBackend,
    /// Run seed (weights, LDP noise, MCMC, splits).
    pub seed: u64,
    /// Ablation: include virtual nodes (false = "Lumos w.o. VN").
    pub virtual_nodes: bool,
    /// Ablation: trim trees (false = "Lumos w.o. TT").
    pub tree_trimming: bool,
    /// Evaluate on the validation split every this many epochs.
    pub eval_every: usize,
    /// Optional heterogeneous-device scenario: when set, every epoch is
    /// additionally priced per-device by the `lumos-sim` discrete-event
    /// simulator and the report carries a [`crate::report::SimSummary`].
    /// For churn-free scenarios this is a pure timing overlay — the
    /// training math is unchanged. Scenarios with churn make absent
    /// devices actually absent: they send no protocol messages and their
    /// embeddings leave the POOL for the rounds they sit out.
    pub scenario: Option<Scenario>,
    /// What the tree constructor balances: the paper's tree-node count, or
    /// capability-weighted virtual seconds. `VirtualSecs` needs a
    /// `scenario` (the fleet profiles are where the per-node µs prices come
    /// from) and falls back to `TreeNodes` without one.
    pub balance_objective: BalanceObjective,
    /// How each round's updates are aggregated. The default `FullSync` is
    /// the paper's synchronous barrier and keeps churn-free scenarios pure
    /// timing overlays; `Deadline { factor }` drops updates landing after
    /// `factor ×` the round's median delivery time from the pooled update,
    /// the message accounting, and the barrier — deliberately changing the
    /// training math. `Buffered { factor, decay }` keeps the same barrier
    /// cut but blends each late update into the round where it actually
    /// arrives with weight `decay^staleness`, accounts its messages there,
    /// and live-migrates tree nodes off devices whose price stays above
    /// twice the fleet mean. `Async { min_updates }` abolishes the barrier
    /// entirely: the round closes the moment `min_updates` updates have
    /// landed, the overflow is carried into the next round at full weight,
    /// and nothing is ever dropped (`min_updates ≥ n_devices` resolves to
    /// `FullSync`). Every non-default policy needs a `scenario` (the
    /// timing signal comes from the fleet profiles) and is inert without
    /// one.
    pub aggregation_policy: AggregationPolicy,
    /// How device updates reach the server. The default `Flat` is the
    /// paper's star (every device uploads straight to the server, bit-
    /// identical to the seed path); `Hierarchical { aggregators }` routes
    /// uploads through K edge aggregators — the balance problem runs per
    /// shard, aggregators apply the aggregation policy against their own
    /// local deadline, the ledger routes each upload to its aggregator,
    /// and per-round server traffic drops from O(devices) to O(K). A
    /// single-aggregator tree resolves to `Flat`
    /// (`TopologyConfig::effective`).
    pub topology: TopologyConfig,
    /// Live re-balance trigger: a device priced above
    /// `rebalance_threshold ×` the fleet-mean per-node cost for
    /// `rebalance_patience` consecutive rounds has its tree nodes
    /// migrated to cheaper endpoints (buffered policy only). Defaults
    /// (2.0, 2) match the constants PR 6 shipped with.
    pub rebalance_threshold: f64,
    /// Consecutive overpriced rounds required before migrating.
    pub rebalance_patience: u32,
    /// Seeded fault injection: the default `FaultSpec::None` injects
    /// nothing and leaves every code path bit-identical to the seed.
    /// `FaultSpec::Faults { .. }` compiles a deterministic per-round
    /// [`lumos_sim::FaultPlan`] (mid-round crashes, message loss/
    /// duplication, aggregator outage windows) from its own RNG stream.
    /// Needs a `scenario` — the fault plan rides on the fleet profiles —
    /// and is inert without one.
    pub faults: FaultSpec,
    /// How lost sends recover: per-send timeout, exponential backoff with
    /// seeded jitter, and a retry budget. Sends that exhaust the budget
    /// degrade into the buffered-staleness path instead of vanishing.
    /// Only consulted when `faults` is set.
    pub recovery: RecoveryPolicy,
}

impl LumosConfig {
    /// Paper-default configuration for a backbone and task, training at
    /// the task's learning rate ([`TaskKind::lr`]).
    pub fn new(backbone: Backbone, task: TaskKind) -> Self {
        Self {
            backbone,
            task,
            epsilon: 2.0,
            epochs: 80,
            lr: task.lr(),
            mcmc_iterations: 300,
            security: SecurityMode::CostModel,
            compare_backend: CompareBackend::Scalar,
            seed: 0x10_0A05,
            virtual_nodes: true,
            tree_trimming: true,
            eval_every: 10,
            scenario: None,
            balance_objective: BalanceObjective::TreeNodes,
            aggregation_policy: AggregationPolicy::FullSync,
            topology: TopologyConfig::Flat,
            rebalance_threshold: 2.0,
            rebalance_patience: 2,
            faults: FaultSpec::None,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Builder-style: set ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Builder-style: set epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style: set seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: disable virtual nodes (ablation "w.o. VN").
    pub fn without_virtual_nodes(mut self) -> Self {
        self.virtual_nodes = false;
        self
    }

    /// Builder-style: disable tree trimming (ablation "w.o. TT").
    pub fn without_tree_trimming(mut self) -> Self {
        self.tree_trimming = false;
        self
    }

    /// Builder-style: set MCMC iterations.
    pub fn with_mcmc_iterations(mut self, iters: usize) -> Self {
        self.mcmc_iterations = iters;
        self
    }

    /// Builder-style: choose the secure-comparison engine.
    pub fn with_compare_backend(mut self, backend: CompareBackend) -> Self {
        self.compare_backend = backend;
        self
    }

    /// Builder-style: enable a heterogeneous-device scenario.
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Builder-style: choose what the tree constructor balances.
    pub fn with_balance_objective(mut self, objective: BalanceObjective) -> Self {
        self.balance_objective = objective;
        self
    }

    /// Builder-style: choose how each round's updates are aggregated.
    pub fn with_aggregation_policy(mut self, policy: AggregationPolicy) -> Self {
        self.aggregation_policy = policy;
        self
    }

    /// Builder-style: choose the aggregation topology.
    pub fn with_topology(mut self, topology: TopologyConfig) -> Self {
        self.topology = topology;
        self
    }

    /// Builder-style: set the live re-balance trigger — migrate a
    /// device's tree nodes after it stays priced above `threshold ×` the
    /// fleet mean for `patience` consecutive rounds. The defaults
    /// (2.0, 2) reproduce the previously hardcoded behaviour bit for bit.
    pub fn with_rebalance_trigger(mut self, threshold: f64, patience: u32) -> Self {
        self.rebalance_threshold = threshold;
        self.rebalance_patience = patience;
        self
    }

    /// Builder-style: enable seeded fault injection. `FaultSpec::None`
    /// (the default) is bit-identical to the seed path; anything else
    /// needs a `scenario` to ride on.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style: set the retry/backoff recovery policy applied to
    /// injected message loss.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Whether this config can run: the one place its ranges are judged,
    /// however its fields were set. [`crate::run_lumos`] calls it once,
    /// before any work. The rules:
    ///
    /// - `epsilon`, `lr` and `rebalance_threshold` are finite and > 0 (ε-LDP
    ///   needs a real budget; a threshold of 0 or NaN fires always or never);
    /// - `eval_every` and `rebalance_patience` are at least 1;
    /// - a deadline factor is finite and ≥ 1, so the median device — and
    ///   with it half the round — survives the cut; a buffered decay is a
    ///   finite weight in `[0, 1]` (above 1 a stale update would outweigh a
    ///   fresh one); an async quorum waits for at least one update;
    /// - a hierarchical topology has at least one aggregator;
    /// - every fault rate is a probability in `[0, 1]`, and every outage
    ///   window covers at least one round.
    ///
    /// The documented clamps and no-ops pass: more aggregators than
    /// devices, a retry budget past `HARD_RETRY_CAP`, `Buffered { decay: 0 }`,
    /// a quorum of the whole fleet, and a policy, faults or `VirtualSecs`
    /// without a scenario.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let probability = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
        let positive = [
            ("epsilon", self.epsilon),
            ("lr", f64::from(self.lr)),
            ("rebalance_threshold", self.rebalance_threshold),
        ];
        for (field, x) in positive {
            ensure!(
                field,
                x.is_finite() && x > 0.0,
                "must be finite and > 0, got {x}"
            );
        }
        ensure!("eval_every", self.eval_every >= 1, "must be at least 1");
        ensure!(
            "rebalance_patience",
            self.rebalance_patience >= 1,
            "must be at least 1"
        );
        let policy = "aggregation_policy";
        match self.aggregation_policy {
            AggregationPolicy::FullSync => {}
            AggregationPolicy::Async { min_updates } => {
                ensure!(
                    policy,
                    min_updates >= 1,
                    "async quorum must wait for at least one update"
                )
            }
            AggregationPolicy::Deadline { factor } | AggregationPolicy::Buffered { factor, .. } => {
                ensure!(
                    policy,
                    factor.is_finite() && factor >= 1.0,
                    "deadline factor must be finite and >= 1, got {factor}"
                )
            }
        }
        if let AggregationPolicy::Buffered { decay, .. } = self.aggregation_policy {
            ensure!(
                policy,
                probability(decay),
                "buffered decay must be in [0, 1], got {decay}"
            );
        }
        if let TopologyConfig::Hierarchical { aggregators } = self.topology {
            ensure!(
                "topology",
                aggregators >= 1,
                "needs at least one aggregator"
            );
        }
        if let FaultSpec::Faults {
            crash_rate,
            loss_rate,
            outages,
        } = &self.faults
        {
            let rates = [("crash_rate", crash_rate), ("loss_rate", loss_rate)];
            for (name, &rate) in rates {
                ensure!(
                    "faults",
                    probability(rate),
                    "{name} must be in [0, 1], got {rate}"
                );
            }
            for w in outages {
                let (k, from, until) = (w.aggregator, w.from_round, w.until_round);
                ensure!(
                    "faults",
                    from < until,
                    "aggregator {k}'s outage [{from}, {until}) is empty"
                );
            }
        }
        Ok(())
    }
}

/// Why a [`LumosConfig`] cannot run: the field that breaks a rule of
/// [`LumosConfig::validate`], and the rule with the value it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending `LumosConfig` field.
    pub field: &'static str,
    /// The rule the field breaks.
    pub rule: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid LumosConfig.{}: {}", self.field, self.rule)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised);
        assert_eq!(c.epsilon, 2.0);
        assert_eq!(c.lr, 0.01);
        assert!(c.virtual_nodes && c.tree_trimming);
        assert_eq!(c.compare_backend, CompareBackend::Scalar);
        assert_eq!(c.balance_objective, BalanceObjective::TreeNodes);
        assert_eq!(c.aggregation_policy, AggregationPolicy::FullSync);
        assert_eq!(c.topology, TopologyConfig::Flat);
        assert_eq!(c.rebalance_threshold, 2.0);
        assert_eq!(c.rebalance_patience, 2);
        assert!(c.faults.is_none(), "faults are strictly opt-in");
        assert_eq!(c.recovery, RecoveryPolicy::default());
    }

    #[test]
    fn one_learning_rate_rule() {
        assert_eq!(TaskKind::Supervised.lr(), 0.01);
        assert_eq!(TaskKind::Unsupervised.lr(), 0.003);
        for task in [TaskKind::Supervised, TaskKind::Unsupervised] {
            for backbone in [Backbone::Gcn, Backbone::Gat] {
                assert_eq!(LumosConfig::new(backbone, task).lr, task.lr());
            }
        }
    }

    #[test]
    fn builders_apply() {
        let c = LumosConfig::new(Backbone::Gat, TaskKind::Unsupervised)
            .with_epsilon(0.5)
            .with_epochs(10)
            .with_seed(9)
            .with_mcmc_iterations(50)
            .with_compare_backend(CompareBackend::Bitsliced)
            .with_scenario(Scenario::StragglerTail)
            .with_balance_objective(BalanceObjective::VirtualSecs)
            .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 })
            .without_virtual_nodes()
            .without_tree_trimming();
        assert_eq!(c.epsilon, 0.5);
        assert_eq!(c.epochs, 10);
        assert_eq!(c.seed, 9);
        assert_eq!(c.mcmc_iterations, 50);
        assert_eq!(c.compare_backend, CompareBackend::Bitsliced);
        assert_eq!(c.scenario, Some(Scenario::StragglerTail));
        assert_eq!(c.balance_objective, BalanceObjective::VirtualSecs);
        assert_eq!(
            c.aggregation_policy,
            AggregationPolicy::Deadline { factor: 2.0 }
        );
        assert!(!c.virtual_nodes && !c.tree_trimming);
    }

    #[test]
    fn scenario_defaults_to_off() {
        let c = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised);
        assert_eq!(c.scenario, None);
    }

    #[test]
    fn topology_and_rebalance_builders_apply() {
        let c = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
            .with_topology(TopologyConfig::Hierarchical { aggregators: 4 })
            .with_rebalance_trigger(3.0, 5);
        assert_eq!(c.topology, TopologyConfig::Hierarchical { aggregators: 4 });
        assert_eq!(c.rebalance_threshold, 3.0);
        assert_eq!(c.rebalance_patience, 5);
    }

    #[test]
    fn fault_builders_apply() {
        let c = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
            .with_faults(FaultSpec::message_loss(0.1))
            .with_recovery(RecoveryPolicy {
                retry_budget: 7,
                ..RecoveryPolicy::default()
            });
        assert!(!c.faults.is_none());
        assert_eq!(c.recovery.retry_budget, 7);
    }

    /// One setting of a config-table row, applied either way a caller can
    /// set it: through its builder, and by assigning the field.
    #[derive(Debug, Clone)]
    enum Set {
        Epsilon(f64),
        Lr(f32),
        EvalEvery(usize),
        Policy(AggregationPolicy),
        Topology(usize),
        Trigger(f64, u32),
        Faults(FaultSpec),
        RetryBudget(u32),
        Objective(BalanceObjective),
    }

    impl Set {
        /// The builder's way to the setting; `None` where no builder sets
        /// the field.
        fn built(&self, c: LumosConfig) -> Option<LumosConfig> {
            Some(match self.clone() {
                Set::Epsilon(e) => c.with_epsilon(e),
                Set::Lr(_) | Set::EvalEvery(_) => return None,
                Set::Policy(p) => c.with_aggregation_policy(p),
                Set::Topology(aggregators) => {
                    c.with_topology(TopologyConfig::Hierarchical { aggregators })
                }
                Set::Trigger(threshold, patience) => c.with_rebalance_trigger(threshold, patience),
                Set::Faults(f) => c.with_faults(f),
                Set::RetryBudget(retry_budget) => c.with_recovery(RecoveryPolicy {
                    retry_budget,
                    ..RecoveryPolicy::default()
                }),
                Set::Objective(o) => c.with_balance_objective(o),
            })
        }

        fn assigned(&self, mut c: LumosConfig) -> LumosConfig {
            match self.clone() {
                Set::Epsilon(e) => c.epsilon = e,
                Set::Lr(lr) => c.lr = lr,
                Set::EvalEvery(every) => c.eval_every = every,
                Set::Policy(p) => c.aggregation_policy = p,
                Set::Topology(aggregators) => {
                    c.topology = TopologyConfig::Hierarchical { aggregators }
                }
                Set::Trigger(threshold, patience) => {
                    c.rebalance_threshold = threshold;
                    c.rebalance_patience = patience;
                }
                Set::Faults(f) => c.faults = f,
                Set::RetryBudget(budget) => c.recovery.retry_budget = budget,
                Set::Objective(o) => c.balance_objective = o,
            }
            c
        }
    }

    fn faults(crash_rate: f64, loss_rate: f64) -> FaultSpec {
        FaultSpec::Faults {
            crash_rate,
            loss_rate,
            outages: Vec::new(),
        }
    }

    fn outage(aggregator: u32, from_round: u64, until_round: u64) -> FaultSpec {
        FaultSpec::Faults {
            crash_rate: 0.0,
            loss_rate: 0.0,
            outages: vec![lumos_sim::OutageWindow {
                aggregator,
                from_round,
                until_round,
            }],
        }
    }

    #[test]
    fn validate_names_the_field_of_every_broken_rule() {
        use AggregationPolicy::{Async, Buffered, Deadline};
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        // The field `validate()` must name, or `None` for a documented
        // clamp or no-op that must pass. No row has a scenario, so every
        // policy and fault rule is judged where it would be inert.
        let rows = [
            (Some("epsilon"), Set::Epsilon(0.0)),
            (Some("epsilon"), Set::Epsilon(-1.0)),
            (Some("epsilon"), Set::Epsilon(nan)),
            (Some("epsilon"), Set::Epsilon(inf)),
            (Some("lr"), Set::Lr(f32::NAN)),
            (Some("lr"), Set::Lr(0.0)),
            (Some("lr"), Set::Lr(f32::INFINITY)),
            (Some("eval_every"), Set::EvalEvery(0)),
            (
                Some("aggregation_policy"),
                Set::Policy(Deadline { factor: 0.5 }),
            ),
            (
                Some("aggregation_policy"),
                Set::Policy(Deadline { factor: nan }),
            ),
            (
                Some("aggregation_policy"),
                Set::Policy(Deadline { factor: inf }),
            ),
            (
                Some("aggregation_policy"),
                Set::Policy(Buffered {
                    factor: 0.5,
                    decay: 0.5,
                }),
            ),
            (
                Some("aggregation_policy"),
                Set::Policy(Buffered {
                    factor: 2.0,
                    decay: 1.5,
                }),
            ),
            (
                Some("aggregation_policy"),
                Set::Policy(Buffered {
                    factor: 2.0,
                    decay: -0.1,
                }),
            ),
            (
                Some("aggregation_policy"),
                Set::Policy(Buffered {
                    factor: 2.0,
                    decay: nan,
                }),
            ),
            (
                Some("aggregation_policy"),
                Set::Policy(Async { min_updates: 0 }),
            ),
            (Some("topology"), Set::Topology(0)),
            (Some("rebalance_threshold"), Set::Trigger(0.0, 2)),
            (Some("rebalance_threshold"), Set::Trigger(-1.0, 2)),
            (Some("rebalance_threshold"), Set::Trigger(nan, 2)),
            (Some("rebalance_threshold"), Set::Trigger(inf, 2)),
            (Some("rebalance_patience"), Set::Trigger(2.0, 0)),
            (Some("faults"), Set::Faults(FaultSpec::message_loss(1.5))),
            (Some("faults"), Set::Faults(faults(-0.1, 0.0))),
            (Some("faults"), Set::Faults(faults(0.0, nan))),
            (Some("faults"), Set::Faults(outage(0, 5, 5))),
            (Some("faults"), Set::Faults(outage(0, 6, 2))),
            // More aggregators than devices clamps, one resolves to flat.
            (None, Set::Topology(1_000_000)),
            (None, Set::Topology(1)),
            // Past HARD_RETRY_CAP clamps to the cap.
            (None, Set::RetryBudget(u32::MAX)),
            // Zero decay is the deadline; a whole-fleet quorum the barrier.
            (
                None,
                Set::Policy(Buffered {
                    factor: 2.0,
                    decay: 0.0,
                }),
            ),
            (
                None,
                Set::Policy(Async {
                    min_updates: usize::MAX,
                }),
            ),
            (None, Set::Policy(Deadline { factor: 1.0 })),
            (
                None,
                Set::Policy(Buffered {
                    factor: 1.0,
                    decay: 1.0,
                }),
            ),
            // Inert without a scenario.
            (None, Set::Faults(faults(1.0, 1.0))),
            (None, Set::Faults(outage(99, 0, 1))),
            (None, Set::Objective(BalanceObjective::VirtualSecs)),
            (None, Set::Trigger(f64::MIN_POSITIVE, 1)),
            (None, Set::Epsilon(1e-6)),
        ];
        for (field, set) in rows {
            let default = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised);
            let ways = [set.built(default.clone()), Some(set.assigned(default))];
            for cfg in ways.into_iter().flatten() {
                match (cfg.validate(), field) {
                    (Ok(()), None) => {}
                    (Err(e), Some(field)) => {
                        assert_eq!(e.field, field, "{set:?}: {e}");
                        let head = format!("invalid LumosConfig.{field}: ");
                        assert!(e.to_string().starts_with(&head), "{e}");
                    }
                    (got, want) => {
                        panic!("{set:?}: expected an error naming {want:?}, got {got:?}")
                    }
                }
            }
        }
    }

    /// Judges `cfg` as [`crate::run_lumos`] does at its entry: a broken
    /// rule panics with the error's text, before any work.
    fn judge(cfg: LumosConfig) {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    }

    fn default_config() -> LumosConfig {
        LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
    }

    #[test]
    #[should_panic(expected = "invalid LumosConfig.aggregation_policy: deadline factor")]
    fn invalid_deadline_factor_fails_at_configuration_time() {
        judge(
            default_config().with_aggregation_policy(AggregationPolicy::Deadline { factor: 0.5 }),
        );
    }

    #[test]
    #[should_panic(expected = "invalid LumosConfig.aggregation_policy: buffered decay")]
    fn invalid_buffered_decay_fails_at_configuration_time() {
        judge(
            default_config().with_aggregation_policy(AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 1.5,
            }),
        );
    }

    #[test]
    #[should_panic(expected = "invalid LumosConfig.faults: loss_rate must be in [0, 1]")]
    fn out_of_range_loss_rate_fails_at_configuration_time() {
        judge(default_config().with_faults(FaultSpec::message_loss(1.5)));
    }

    #[test]
    #[should_panic(expected = "invalid LumosConfig.faults: aggregator 0's outage [5, 5) is empty")]
    fn empty_outage_window_fails_at_configuration_time() {
        judge(default_config().with_faults(outage(0, 5, 5)));
    }

    #[test]
    #[should_panic(expected = "invalid LumosConfig.aggregation_policy: async quorum")]
    fn zero_quorum_fails_at_configuration_time() {
        judge(
            default_config().with_aggregation_policy(AggregationPolicy::Async { min_updates: 0 }),
        );
    }

    #[test]
    #[should_panic(expected = "invalid LumosConfig.topology: needs at least one aggregator")]
    fn zero_aggregator_topology_fails_at_configuration_time() {
        judge(default_config().with_topology(TopologyConfig::Hierarchical { aggregators: 0 }));
    }

    #[test]
    #[should_panic(expected = "invalid LumosConfig.topology: needs at least one aggregator")]
    fn zero_aggregators_is_rejected() {
        // Assigned as a field, past every builder.
        let mut cfg = default_config();
        cfg.topology = TopologyConfig::Hierarchical { aggregators: 0 };
        judge(cfg);
    }

    #[test]
    #[should_panic(expected = "invalid LumosConfig.rebalance_threshold")]
    fn non_positive_rebalance_threshold_fails_at_configuration_time() {
        judge(default_config().with_rebalance_trigger(0.0, 2));
    }

    #[test]
    #[should_panic(expected = "invalid LumosConfig.rebalance_patience")]
    fn zero_rebalance_patience_fails_at_configuration_time() {
        judge(default_config().with_rebalance_trigger(2.0, 0));
    }
}
