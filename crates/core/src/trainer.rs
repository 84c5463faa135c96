//! The tree-based GNN trainer (§VI) and the end-to-end Lumos pipeline.
//!
//! Pipeline per run: split the graph into ego networks → construct trimmed
//! trees (§V) → LDP feature exchange (§VI-A) → per-epoch message passing on
//! every tree with shared weights, POOL across devices (Eq. 31), loss
//! computation (§VI-C), synchronized gradient update — with every
//! inter-device message recorded on the federated runtime's ledger.
//!
//! The run's state has three owners, split where the borrows split: the
//! `Forest` (what is trained on), the `Model` (what is trained) and the
//! `Fleet` (who trains, and what it costs them). [`run_lumos`] builds the
//! three and drives one round per epoch through their phase methods:
//! `rebalance → judge → pool weights → step → account → close → evaluate`.

use std::collections::BTreeMap;
use std::rc::Rc;

use lumos_balance::{rebalance_assignment, Assignment, BalanceObjective};
use lumos_common::rng::Xoshiro256pp;
use lumos_common::timer::Laps;
use lumos_data::Dataset;
use lumos_fed::{ledger_work, CostModel, Runtime, SimNetwork, EMBEDDING_BYTES};
use lumos_gnn::{EncoderConfig, GnnEncoder};
use lumos_graph::Graph;
use lumos_tensor::{Adam, ParamStore, Tape};

use lumos_sim::{
    AggregationPolicy, DeviceProfile, EpochStats, EventDrivenRuntime, FaultCounters, FaultPlan,
    FaultState, RecoveryPolicy, RoundWork, ScenarioState,
};
use lumos_topo::{ShardRoundPolicies, Topology};

use crate::batch::{build_compact, BatchedTrees, FeatureRows, PoolArrays};
use crate::config::LumosConfig;
use crate::constructor::{construct_assignment, construct_assignment_sharded};
use crate::init::{exchange_features, exchange_missing_features, LdpExchange};
use crate::pooling::tiered_pool;
use crate::report::{RoundRecord, RoundSim, RunFootprint, RunReport};
use crate::task::{EvalCadence, EvalSplit, TaskData, TaskHead};
use crate::tree::{DeviceTree, LocalGraphKind};

/// Runs the full Lumos system on a dataset and returns the report.
pub fn run_lumos(ds: &Dataset, cfg: &LumosConfig) -> RunReport {
    run_lumos_measured(ds, cfg).0
}

/// [`run_lumos`], with where the run's wall time went and what its state
/// held when it ended. The [`Laps`] started here is the only clock the run
/// reads.
///
/// # Panics
/// Panics with the [`LumosConfig::validate`] error, before any work, on a
/// config that cannot run.
pub fn run_lumos_measured(ds: &Dataset, cfg: &LumosConfig) -> (RunReport, RunFootprint) {
    let mut laps = Laps::started();
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    let cadence = EvalCadence::new(cfg.eval_every, cfg.epochs);
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let n = ds.num_nodes();

    // Link prediction trains on the 80% train-edge graph; classification
    // trains on the full graph with node masks.
    let data = TaskData::draw(cfg.task, ds, ds.labels.clone(), &mut rng);
    let train_graph = match data.train_edges() {
        Some(edges) => Graph::from_edges(n, edges),
        None => ds.graph.clone(),
    };
    laps.lap("split");

    // The fleet comes up before the constructor so the VirtualSecs
    // objective can price each device's tree nodes.
    let enc_cfg = EncoderConfig::paper(cfg.backbone, ds.feature_dim);
    let (mut fleet, node_costs) = Fleet::muster(n, cfg, enc_cfg.num_layers);

    // Phase 1: heterogeneity-aware tree constructor (§V); in hierarchical
    // mode each shard balances independently inside its own secure lanes.
    let (assignment, constructor) = match &fleet.topology {
        Some(topo) => construct_assignment_sharded(
            &train_graph,
            cfg.tree_trimming,
            cfg.mcmc_iterations,
            cfg.security,
            cfg.compare_backend,
            cfg.seed,
            node_costs.as_deref(),
            topo,
        ),
        None => construct_assignment(
            &train_graph,
            cfg.tree_trimming,
            cfg.mcmc_iterations,
            cfg.security,
            cfg.compare_backend,
            cfg.seed,
            node_costs.as_deref(),
        ),
    };
    laps.lap("constructor");

    // Phase 2: LDP embedding initialization (§VI-A).
    let net = &mut fleet.runtime.network;
    let mut forest = Forest::plant(ds, cfg, assignment, None, &mut rng, net, &mut laps);
    // Phase 3: model setup (§VIII-B hyperparameters).
    let mut model = Model::new(&enc_cfg, data, cfg.lr, &mut rng);
    laps.lap("model_init");

    let mut report = RunReport::new("lumos", &ds.name, cfg.backbone.name(), cfg.task.name());
    report.constructor = constructor;
    report.init_messages = forest.exchange.messages;

    // Phase 4: synchronized training epochs, one round each.
    for epoch in 0..cfg.epochs {
        fleet.open_round();
        let moved = fleet.rebalance(&mut forest.assignment, cfg);
        laps.lap("round");
        if moved > 0 {
            let net = &mut fleet.runtime.network;
            forest = forest.regrow(ds, cfg, &mut rng, net, &mut laps);
        }
        let mut judged = fleet.judge(&mut forest, model.head.link_fetches());
        let weights = fleet.pool_weights(&mut judged);
        let (batch, pool) = forest.pooled(weights);
        laps.lap("round");
        let loss = model.step(batch, pool, fleet.topology.as_ref(), &ds.graph, &mut rng);
        laps.lap("step");
        fleet.account(&forest.trees, &judged, model.head.link_fetches());
        let mut round = fleet.close(epoch, &forest.batch.tree_sizes, &judged, moved, loss);
        laps.lap("round");
        let splits = cadence.splits_after(epoch);
        if !splits.is_empty() {
            let metrics = model.evaluate(&forest.batch, splits, &mut rng);
            round.val_metric = Some(metrics[0]);
            report.record_eval(epoch, loss, &metrics);
            laps.lap("evaluate");
        }
        report.rounds.push(round);
    }

    // Phase 5: the test metric rode on the last epoch's validation forward;
    // a run that trains nothing scores the model it initialized.
    if cfg.epochs == 0 {
        report.test_metric = model.evaluate(&forest.batch, &[EvalSplit::Test], &mut rng)[0];
        laps.lap("evaluate");
    }
    report.fold_rounds(cfg.scenario.map(|s| s.name()));
    let bytes = [
        ("trees", forest.trees.iter().map(DeviceTree::bytes).sum()),
        ("recovered memo", forest.exchange.bytes()),
        ("batch features", forest.batch.features.bytes()),
        ("message graph + pool", forest.batch.index_bytes()),
        ("model + optimiser", model.bytes()),
        ("tape nodes + free list", model.tape.held_bytes()),
        ("ledger", fleet.runtime.network.bytes()),
        ("round records", std::mem::size_of_val(&report.rounds[..])),
    ];
    let footprint = RunFootprint {
        phase_secs: laps.into_phases(),
        epochs: cfg.epochs,
        bytes: bytes.map(|(owner, b)| (owner, b as u64)).to_vec(),
    };
    (report, footprint)
}

/// The batch a run trains on: its center rows borrowed from the dataset.
type Batch<'d> = BatchedTrees<FeatureRows<'d>>;

/// What is trained on: the tree assignment and everything derived from it.
/// The two memos describe the current `trees` / `batch` and die with them.
struct Forest<'d> {
    assignment: Assignment,
    trees: Vec<DeviceTree>,
    exchange: LdpExchange,
    batch: Batch<'d>,
    /// The round's simulation; built on first use after every (re)build.
    probe: Option<RoundProbe>,
    /// Per-round memo: the POOL arrays are rebuilt only when the weight
    /// vector itself changed.
    weight_cache: Option<(Vec<f32>, PoolArrays)>,
}

impl<'d> Forest<'d> {
    /// Builds every device's tree from `assignment`, runs the LDP feature
    /// exchange over `net` — all of it, or with a `memo` only the (owner,
    /// neighbor) pairs it does not cover — and batches the forest. The two
    /// lap as the run's one-off `exchange` / `batch_build`, or with a `memo`
    /// — a migration's re-plant, inside an epoch — under their own two
    /// [`RunFootprint::EPOCH_PHASES`].
    fn plant(
        ds: &'d Dataset,
        cfg: &LumosConfig,
        assignment: Assignment,
        memo: Option<LdpExchange>,
        rng: &mut Xoshiro256pp,
        net: &mut SimNetwork,
        laps: &mut Laps,
    ) -> Self {
        let phases = match memo {
            None => ["exchange", "batch_build"],
            Some(_) => ["regrow_exchange", "regrow_batch_build"],
        };
        let kind = if cfg.virtual_nodes {
            LocalGraphKind::VirtualNodeTree
        } else {
            LocalGraphKind::RawEgoNetwork
        };
        let trees: Vec<DeviceTree> = (0..assignment.num_devices() as u32)
            .map(|v| DeviceTree::build(kind, v, assignment.kept(v).to_vec()))
            .collect();
        let (features, dim) = (&ds.features[..], ds.feature_dim);
        let exchange = match memo {
            None => exchange_features(features, dim, &trees, cfg.epsilon, rng, net),
            Some(mut memo) => {
                exchange_missing_features(features, dim, &trees, cfg.epsilon, rng, net, &mut memo);
                memo
            }
        };
        laps.lap(phases[0]);
        let batch = build_compact(&trees, features, dim, &exchange);
        laps.lap(phases[1]);
        Self {
            assignment,
            trees,
            exchange,
            batch,
            probe: None,
            weight_cache: None,
        }
    }

    /// Rebuilds everything derived from the (just migrated) assignment.
    /// Devices that inherited a branch never held its leaves' features:
    /// only the missing (owner, neighbor) pairs are topped up, on this
    /// epoch's ledger and this epoch's clock.
    fn regrow(
        self,
        ds: &'d Dataset,
        cfg: &LumosConfig,
        rng: &mut Xoshiro256pp,
        net: &mut SimNetwork,
        laps: &mut Laps,
    ) -> Self {
        let Self {
            assignment,
            trees,
            exchange,
            batch,
            probe,
            weight_cache,
        } = self;
        // The stale trees, batch and the memos that describe them go first:
        // nothing batch-sized is alive while its successor is built.
        drop((trees, batch, probe, weight_cache));
        Self::plant(ds, cfg, assignment, Some(exchange), rng, net, laps)
    }

    /// The batch with the POOL arrays of this round's per-device weights.
    fn pooled(&mut self, weights: Vec<f32>) -> (&Batch<'d>, &PoolArrays) {
        if !matches!(&self.weight_cache, Some((cached, _)) if *cached == weights) {
            self.weight_cache = None;
        }
        let batch = &self.batch;
        let (_, pool) = self.weight_cache.get_or_insert_with(|| {
            let arrays = batch.weighted_pool(&weights);
            (weights, arrays)
        });
        (batch, pool)
    }
}

/// What is trained: the shared weights, the task head, the optimiser.
struct Model {
    store: ParamStore,
    encoder: GnnEncoder,
    head: TaskHead,
    opt: Adam,
    /// One tape's buffers serve every step and every evaluation of the run.
    /// A live tape borrows the batch's feature rows, which a migration
    /// replaces, so it is parked here — emptied, borrowing nothing —
    /// between uses.
    tape: Tape<'static>,
}

impl Model {
    fn new(enc_cfg: &EncoderConfig, data: TaskData, lr: f32, rng: &mut Xoshiro256pp) -> Self {
        let mut store = ParamStore::new();
        let encoder = GnnEncoder::new(&mut store, enc_cfg, rng);
        let head = TaskHead::new(data, &mut store, encoder.out_dim(), rng);
        Self {
            store,
            encoder,
            head,
            opt: Adam::new(lr),
            tape: Tape::new(),
        }
    }

    /// One synchronized update (§VI-B/C): forward on every tree, POOL
    /// through `pool` (tier by tier under a topology), the task loss, one
    /// optimiser step. Returns the loss.
    fn step(
        &mut self,
        batch: &Batch<'_>,
        pool: &PoolArrays,
        topo: Option<&Topology>,
        graph: &Graph,
        rng: &mut Xoshiro256pp,
    ) -> f64 {
        let mut tape = std::mem::take(&mut self.tape).reset();
        let (store, opt) = (&mut self.store, &mut self.opt);
        let loss = self
            .head
            .step(&mut tape, store, opt, graph, rng, |tape, store, rng| {
                let x = tape.constant_rows(&batch.features);
                let h_tree = self.encoder.forward(tape, store, x, &batch.mg, true, rng);
                tiered_pool(tape, h_tree, pool, topo)
            });
        self.tape = tape.reset();
        loss
    }

    /// Bytes of the parameters, their gradients and Adam's two moments.
    fn bytes(&self) -> usize {
        4 * self.store.num_scalars() * std::mem::size_of::<f32>()
    }

    /// The held-out metrics of `splits`, in order, off one forward (no
    /// dropout). Evaluation is offline: every device's embedding
    /// participates, and the pooling runs server-side — no aggregation tier
    /// on the wire.
    fn evaluate(
        &mut self,
        batch: &Batch<'_>,
        splits: &[EvalSplit],
        rng: &mut Xoshiro256pp,
    ) -> Vec<f64> {
        let mut tape = std::mem::take(&mut self.tape).reset();
        let x = tape.constant_rows(&batch.features);
        let h_tree = self
            .encoder
            .forward(&mut tape, &self.store, x, &batch.mg, false, rng);
        let h = tiered_pool(&mut tape, h_tree, &batch.masked_pool(&[]), None);
        let metrics = splits
            .iter()
            .map(|&on| self.head.metric(&mut tape, &self.store, h, on))
            .collect();
        self.tape = tape.reset();
        metrics
    }
}

/// The round's one simulation. The per-round message pattern is static
/// between migrations (same trees, same protocol every epoch), so one dry
/// run of the recorder yields the work every device *attempts* each round.
/// The schedule priced from it on the round's fleet and faults is run once,
/// under the policy's handler, and that run both judges the round (who is
/// late) and prices it (its [`EpochStats`]).
struct RoundProbe {
    template: RoundWork,
    /// The last fault-free run and the fleet it ran on: the outcome is a
    /// pure function of (fleet, template), so a frozen fleet simulates
    /// once. A fault plan differs every round and is never memoised.
    memo: Option<(Vec<DeviceProfile>, Simulated)>,
}

/// What one run of a round's schedule decided.
#[derive(Clone)]
struct Simulated {
    /// The `(device, staleness)` pairs the policy found late.
    late: Vec<(u32, u32)>,
    /// The statistics of the run that found them.
    stats: Rc<EpochStats>,
}

impl RoundProbe {
    /// Runs the round. Decisions happen at event granularity: the policy's
    /// handler subscribes to the scheduled event stream and closes the
    /// round when the last update it awaits lands (a topology cuts each
    /// shard against its own local median; a flat fleet is one shard).
    fn run(
        &mut self,
        policy: &AggregationPolicy,
        profiles: &[DeviceProfile],
        plan: Option<&FaultPlan>,
        topology: Option<&Topology>,
    ) -> Simulated {
        if let (None, Some((fleet, round))) = (plan, &self.memo) {
            if fleet == profiles {
                return round.clone();
            }
        }
        let schedule = EventDrivenRuntime::new_with_faults(profiles, &self.template, plan);
        let flat = Topology::contiguous(profiles.len(), 1);
        let mut shards = ShardRoundPolicies::new(policy, &schedule, topology.unwrap_or(&flat));
        let stats = Rc::new(schedule.run(|t, ev| shards.on_event(t, ev)));
        let round = Simulated {
            late: shards.verdicts(),
            stats,
        };
        if plan.is_none() {
            self.memo = Some((profiles.to_vec(), round.clone()));
        }
        round
    }
}

/// What a round's timing decided, before any training math runs. All empty
/// (and `pooled` the whole fleet) without a scenario.
#[derive(Default)]
struct Judged {
    /// The round's simulation (`None` without a scenario).
    sim: Option<Rc<EpochStats>>,
    /// Devices a deadline cut from the barrier, discarded or buffered (the
    /// async quorum's overflow is carried, not cut).
    cut: Vec<u32>,
    /// Updates that never reach anyone: churned-out and crashed devices,
    /// and what a non-carrying policy cut.
    dropped: Vec<u32>,
    /// `(device, staleness)` of updates that arrive `staleness` rounds
    /// late: what a carrying policy cut, and uploads that ran out their
    /// retry budget (one round).
    carried: Vec<(u32, u32)>,
    /// The round's compiled fault plan, counted over the available fleet,
    /// plus the shards an outage re-homed.
    faults: FaultCounters,
    /// On-time updates in the round's POOL weight vector, and carried ones
    /// arriving in it (both set by [`Fleet::pool_weights`]).
    pooled: u64,
    arrived: u64,
}

/// Who trains and what it costs them: the devices' profiles, the ledger
/// every message lands on, and the resolved rules a round is judged by.
struct Fleet {
    /// The ledger, and the queue updates that arrive in a later round wait
    /// in: the cuts of a carrying policy, and — under any policy — uploads
    /// that ran out their retry budget, which degrade to one round late
    /// instead of vanishing.
    runtime: Runtime,
    scenario: Option<ScenarioState>,
    faults: Option<FaultState>,
    /// The policy as resolved for this run (see [`Fleet::muster`]).
    policy: AggregationPolicy,
    /// The re-balancer's per-device overload streaks.
    streaks: Vec<u32>,
    /// `Some` only with ≥ 2 real shards: a single-aggregator tree resolves
    /// to the flat topology up front (`TopologyConfig::effective`).
    topology: Option<Topology>,
    layers: usize,
}

impl Fleet {
    /// Brings up `n` devices under `cfg`, and returns with them the
    /// per-device node prices of the VirtualSecs objective (`None`: count
    /// nodes). The fleet and the fault stream each draw from their own
    /// seed-derived RNG, so enabling a scenario or faults changes timing
    /// statistics (and, under VirtualSecs, tree placement) only — never the
    /// trainer's stochastic streams.
    fn muster(n: usize, cfg: &LumosConfig, layers: usize) -> (Self, Option<Vec<u64>>) {
        let mut runtime = Runtime::new(n, CostModel::default());
        let scenario = cfg.scenario.map(|s| ScenarioState::new(s, n, cfg.seed));
        if let Some(state) = &scenario {
            runtime.set_profiles(state.profiles().to_vec());
        }
        let node_costs = match cfg.balance_objective {
            BalanceObjective::TreeNodes => None,
            // Without a scenario there are no profiles to price with, so
            // this silently degenerates to the node-count objective.
            BalanceObjective::VirtualSecs => runtime.node_costs_micros(layers, EMBEDDING_BYTES),
        };
        // Device→shard placement is cost-aware when per-device prices
        // exist, seeded otherwise — and static thereafter: live
        // re-balancing migrates tree nodes between devices, never devices
        // between aggregators.
        let topology =
            cfg.topology
                .effective(n)
                .aggregators()
                .map(|k| match node_costs.as_deref() {
                    Some(costs) => Topology::cost_balanced(costs, k),
                    None => Topology::seeded(n, k, cfg.seed),
                });
        if let Some(topo) = &topology {
            // Uploads land at the aggregators, each round closes on their
            // partials, and every profiled epoch's makespan runs through
            // them.
            runtime.set_tier(topo.clone());
        }
        // The round is resolved once, here. Policy and faults both ride on
        // the fleet's profiles, so without a scenario there is nothing to
        // time, cut, crash or delay against and every round is the paper's
        // synchronous barrier. `resolve` additionally folds
        // `Buffered { decay: 0 }` into `Deadline` and a full-fleet `Async`
        // quorum into `FullSync`, so both bit-for-bit collapses hold by
        // construction.
        let policy = if scenario.is_some() {
            cfg.aggregation_policy.resolve(n)
        } else {
            AggregationPolicy::FullSync
        };
        let faults = (scenario.is_some() && !cfg.faults.is_none())
            .then(|| FaultState::new(cfg.faults.clone(), RecoveryPolicy::default(), cfg.seed));
        let fleet = Self {
            runtime,
            scenario,
            faults,
            policy,
            streaks: vec![0; n],
            topology,
            layers,
        };
        (fleet, node_costs)
    }

    /// Opens the round's ledger window on the fleet as it stands.
    fn open_round(&mut self) {
        if let Some(state) = &self.scenario {
            self.runtime.set_profiles(state.profiles().to_vec());
        }
        self.runtime.begin_epoch();
    }

    /// Live re-balancing, under a carrying policy only: price the fleet as
    /// it stands (churn-absent devices cost UNAVAILABLE_COST_FACTOR× their
    /// nominal rate) and migrate tree nodes off devices whose price stayed
    /// above `cfg.rebalance_threshold ×` the fleet mean for
    /// `cfg.rebalance_patience` consecutive rounds (the streak then
    /// restarts). Returns the tree nodes moved; `assignment` changed iff it
    /// is non-zero.
    fn rebalance(&mut self, assignment: &mut Assignment, cfg: &LumosConfig) -> u64 {
        if carry_decay(&self.policy).is_none() {
            return 0;
        }
        let prices = self
            .runtime
            .node_costs_micros(self.layers, EMBEDDING_BYTES)
            .expect("a carrying policy runs on a scenario's profiles");
        let mean = prices.iter().map(|&p| p as f64).sum::<f64>() / prices.len().max(1) as f64;
        let mut overloaded = Vec::new();
        for (d, &p) in prices.iter().enumerate() {
            if p as f64 > cfg.rebalance_threshold * mean {
                self.streaks[d] += 1;
                if self.streaks[d] >= cfg.rebalance_patience {
                    overloaded.push(d as u32);
                    self.streaks[d] = 0;
                }
            } else {
                self.streaks[d] = 0;
            }
        }
        if overloaded.is_empty() {
            return 0;
        }
        rebalance_assignment(assignment, &prices, &overloaded).moved_nodes as u64
    }

    /// Judges one round on the fleet as it stands: who is churned out, who
    /// crashes mid-round, whose upload exhausts its retry budget (both from
    /// the fault plan compiled here, before any traffic lands on the
    /// ledger), and whose update the policy finds late — all from the
    /// round's one simulation, run on `forest`'s probe, whose template is
    /// one dry run of [`Fleet::account`]'s recorder.
    fn judge(&mut self, forest: &mut Forest, fetches: Option<&[(u32, u32)]>) -> Judged {
        let mut judged = Judged::default();
        let Some(state) = &self.scenario else {
            return judged;
        };
        let profiles = state.profiles();
        let topo = self.topology.as_ref();
        let avail: Vec<bool> = profiles.iter().map(|p| p.available).collect();
        judged
            .dropped
            .extend((0..profiles.len() as u32).filter(|&d| !avail[d as usize]));
        let mut exhausted = Vec::new();
        let mut plan = None;
        if let Some(fstate) = &mut self.faults {
            let mut failovers = 0;
            if let Some(topo) = topo {
                // Aggregators inside an outage window re-home their shards
                // to the deterministic cyclic successor for the whole round
                // — ledger routing and tier timing alike.
                let outaged = fstate.outaged_aggregators(topo.num_aggregators());
                let rehome = (!outaged.is_empty()).then(|| topo.failover_map(&outaged));
                let served = rehome.iter().flatten().enumerate();
                failovers = served.filter(|&(k, &t)| t as usize != k).count() as u64;
                self.runtime.network.set_rehome(rehome);
            }
            let compiled = fstate.compile_round(profiles);
            judged.faults = FaultCounters {
                failovers,
                ..compiled.round_counters(&avail)
            };
            judged.dropped.extend(compiled.crashed_devices(&avail));
            exhausted = compiled.exhausted_uploads(&avail);
            plan = Some(compiled);
        }
        let probe = forest.probe.get_or_insert_with(|| {
            // A sharded ledger logs the window a flat one does, so the dry
            // run needs no tier.
            let mut net = SimNetwork::new(profiles.len());
            let snap = net.snapshot();
            record_epoch_messages(&forest.trees, &mut net, fetches, &[], &[]);
            RoundProbe {
                template: ledger_work(&net, &snap, &forest.batch.tree_sizes, self.layers),
                memo: None,
            }
        });
        let Simulated { late, stats } = probe.run(&self.policy, profiles, plan.as_ref(), topo);
        judged.sim = Some(stats);
        if !matches!(self.policy, AggregationPolicy::Async { .. }) {
            judged.cut = late.iter().map(|&(d, _)| d).collect();
        }
        if carry_decay(&self.policy).is_some() {
            judged.carried = late;
        } else {
            judged.dropped.extend(&judged.cut);
        }
        judged.carried.extend(exhausted.iter().map(|&d| (d, 1)));
        judged
    }

    /// The round's per-device POOL weights (Eq. 31 as a weighted mean): a
    /// device whose update is missing this round contributes nothing;
    /// carried updates blend back in at `decay^staleness` in the round they
    /// arrive — even if their sender is late or absent again (the update
    /// already landed) — and their silenced sends land on this round's
    /// ledger with them, accounted where they arrive, not where they were
    /// cut. Counts both kinds into `judged`.
    fn pool_weights(&mut self, judged: &mut Judged) -> Vec<f32> {
        let n = self.runtime.network.num_devices();
        let mut weights = vec![1.0f32; n];
        let missing = judged.carried.iter().map(|(d, _)| d);
        for &d in judged.dropped.iter().chain(missing) {
            weights[d as usize] = 0.0;
        }
        judged.pooled = weights.iter().filter(|&&w| w != 0.0).count() as u64;
        let arrived = self.runtime.advance_carried();
        judged.arrived = arrived.len() as u64;
        // A device's arrivals are summed in f64, in the order they were
        // carried, and added once.
        let decay = carry_decay(&self.policy);
        let mut stale = vec![0.0f64; n];
        for (d, staleness) in arrived {
            stale[d as usize] += stale_weight(decay, staleness);
        }
        for (w, arrived) in weights.iter_mut().zip(stale) {
            *w += arrived as f32;
        }
        weights
    }

    /// Protocol message accounting for this epoch (§VI-B/C). Dropped and
    /// carried devices are both silenced on this round's ledger (the
    /// round's simulation already ran, on what they attempted); the carried
    /// updates enter the runtime's queue with their sends, batched by
    /// staleness.
    fn account(&mut self, trees: &[DeviceTree], judged: &Judged, fetches: Option<&[(u32, u32)]>) {
        let carried = record_epoch_messages(
            trees,
            &mut self.runtime.network,
            fetches,
            &judged.carried,
            &judged.dropped,
        );
        for (staleness, (devices, sends)) in carried {
            self.runtime.carry(staleness, devices, sends);
        }
    }

    /// Closes the round on the simulation that judged it — the runtime
    /// prices the ledger window, it does not simulate again — and returns
    /// the round's record, written here because this is where everything
    /// the round decided is still in hand. Churn then applies, *between*
    /// rounds.
    fn close(
        &mut self,
        epoch: usize,
        tree_sizes: &[usize],
        judged: &Judged,
        migrated_nodes: u64,
        loss: f64,
    ) -> RoundRecord {
        let closed = self
            .runtime
            .end_epoch(tree_sizes, self.layers, judged.sim.as_deref());
        if let Some(state) = &mut self.scenario {
            state.advance_round();
        }
        let cut = judged.cut.len() as u64;
        let carrying = carry_decay(&self.policy).is_some();
        let sim = closed.sim.zip(judged.sim.as_deref());
        let sim = sim.map(|(tiered, stats)| RoundSim {
            makespan_secs: tiered.makespan_secs,
            tier2_secs: tiered.tier2_secs,
            straggler: tiered.straggler,
            utilization: tiered.utilization,
            events: stats.events,
            active: stats.active_devices as u64,
            absent: (tree_sizes.len() - stats.active_devices) as u64,
            pooled: judged.pooled,
            crashed: judged.faults.crashed_devices,
            cut,
            // Only a policy that does not carry its cuts wastes them.
            discarded: if carrying { 0 } else { cut },
            carried: judged.carried.len() as u64,
            exhausted: judged.faults.exhausted_sends,
            arrived: judged.arrived,
            in_flight: self.runtime.in_flight() as u64,
            lost_messages: judged.faults.lost_messages,
            retries: judged.faults.retries,
            retry_secs: judged.faults.retry_secs,
            failovers: judged.faults.failovers,
            migrated_nodes,
        });
        RoundRecord {
            epoch,
            messages: closed.total_messages,
            bytes: closed.total_bytes,
            messages_per_device: closed.avg_messages_per_device,
            makespan: closed.makespan,
            mean_cost: closed.mean_cost,
            loss,
            val_metric: None,
            sim,
        }
    }
}

/// The decay at which `policy` carries an update it cut into the round
/// where it arrives (the async quorum carries its overflow undiscounted).
/// `None` when the policy cuts nothing (`FullSync`) or discards what it
/// cuts (`Deadline`).
fn carry_decay(policy: &AggregationPolicy) -> Option<f64> {
    match *policy {
        AggregationPolicy::Buffered { decay, .. } => Some(decay),
        AggregationPolicy::Async { .. } => Some(1.0),
        AggregationPolicy::FullSync | AggregationPolicy::Deadline { .. } => None,
    }
}

/// The POOL weight of a carried update arriving `staleness` rounds late
/// under a policy carrying at `decay`. An update carried by the recovery
/// layer alone (an exhausted upload under a policy that carries nothing)
/// pools undiscounted.
fn stale_weight(decay: Option<f64>, staleness: u32) -> f64 {
    decay.unwrap_or(1.0).powi(staleness as i32)
}

/// One staleness's share of a round's carried updates: the devices, and
/// their silenced `(from, to, bytes)` sends.
type CarriedBatch = (Vec<u32>, Vec<(u32, u32, u64)>);

/// What becomes of a device's sends this round.
#[derive(Clone, Copy)]
enum Fate {
    /// On this round's ledger.
    Live,
    /// Silenced now, re-injected when the update arrives, this many rounds
    /// on.
    Parked(u32),
    /// Silenced for good.
    Dropped,
}

/// Records the inter-device messages one training epoch incurs (§VI-B/C):
///
/// * each device sends the updated embedding of every neighbor leaf back to
///   that leaf's owner (one message per retained branch);
/// * each owner's pooled embedding requires no further messages (the leaves
///   arrived above);
/// * unsupervised training additionally fetches the embeddings of retained
///   neighbors and of sampled negatives (Eq. 33) — `fetches`;
/// * finally every device ships its loss/gradient contribution to the
///   aggregation point.
///
/// Devices in `parked` form an update that arrives in a later round (cut
/// by a carrying policy, or out of retries): none of their outbound
/// messages are accounted here (messages *to* them still are — their
/// senders paid either way). The return value batches them by rounds until
/// arrival — the devices in `parked` order, with their silenced sends — so
/// the runtime can land each batch in the round where it actually arrives
/// (the ledger's readers sum per sender, so the order of a batch's sends is
/// free).
/// Devices in `dropped` (churned out, crashed, or cut by the deadline) send
/// nothing, now or later.
///
/// The upload is a `SimNetwork::SERVER`-bound send, and the ledger picks
/// its tier: under a topology it lands at the device's aggregator, and the
/// runtime ships one partial per serving aggregator when the round closes
/// (`Runtime::end_epoch`) — per-round server traffic is O(aggregators),
/// not O(devices). A deferred upload lands the same way in the round it
/// arrives in (`Runtime::advance_carried`).
fn record_epoch_messages(
    trees: &[DeviceTree],
    net: &mut SimNetwork,
    fetches: Option<&[(u32, u32)]>,
    parked: &[(u32, u32)],
    dropped: &[u32],
) -> BTreeMap<u32, CarriedBatch> {
    let mut carried: BTreeMap<u32, CarriedBatch> = BTreeMap::new();
    let mut fate = vec![Fate::Live; trees.len()];
    for &d in dropped {
        fate[d as usize] = Fate::Dropped;
    }
    for &(d, staleness) in parked {
        fate[d as usize] = Fate::Parked(staleness);
        carried.entry(staleness).or_default().0.push(d);
    }
    let mut route = |net: &mut SimNetwork, from: u32, to: u32| match fate[from as usize] {
        Fate::Dropped => {}
        Fate::Parked(staleness) => {
            let batch = carried.entry(staleness).or_default();
            batch.1.push((from, to, EMBEDDING_BYTES));
        }
        Fate::Live => net.send(from, to, EMBEDDING_BYTES),
    };
    for tree in trees {
        let u = tree.center;
        for &v in &tree.neighbors {
            // Leaf embedding u → owner v after the l-layer update.
            route(net, u, v);
        }
    }
    net.round();
    if let Some(train_edges) = fetches {
        // Positive fetches: each training edge's embedding crosses once;
        // so does each edge's one sampled negative.
        for &(u, v) in train_edges {
            route(net, v, u);
        }
        for i in 0..train_edges.len() {
            // Negative-sample embedding transfers (uniformly attributed).
            let from = (i % trees.len()) as u32;
            let to = ((i / 2) % trees.len()) as u32;
            // A device already holds its own embedding — a self-addressed
            // fetch never crosses the wire.
            if from != to {
                route(net, from, to);
            }
        }
        net.round();
    }
    // Loss/gradient aggregation: one upload per surviving device.
    for v in 0..trees.len() as u32 {
        route(net, v, SimNetwork::SERVER);
    }
    net.round();
    carried
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskKind;
    use lumos_data::{EdgeSplit, Scale};
    use lumos_gnn::Backbone;

    fn smoke_config(task: TaskKind) -> LumosConfig {
        LumosConfig::new(Backbone::Gcn, task)
            .with_epochs(30)
            .with_mcmc_iterations(30)
            .with_seed(7)
    }

    #[test]
    fn supervised_run_beats_random_guessing() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised);
        let report = run_lumos(&ds, &cfg);
        // 4 balanced classes → random ≈ 0.25. Lumos must clearly beat it.
        assert!(
            report.test_metric > 0.4,
            "accuracy {} too low",
            report.test_metric
        );
        assert!(!report.history.is_empty());
        assert!(report.avg_messages_per_device_per_epoch > 0.0);
        assert!(report.init_messages > 0);
        assert!(report.constructor.trimmed);
    }

    #[test]
    fn unsupervised_run_beats_random_auc() {
        let ds = Dataset::lastfm_like(Scale::Smoke);
        // Link prediction under ε = 2 needs the paper's longer training to
        // rise above the LDP noise floor (§VIII-B uses 300 epochs).
        let mut cfg = smoke_config(TaskKind::Unsupervised).with_epochs(500);
        cfg.eval_every = 50;
        let report = run_lumos(&ds, &cfg);
        assert!(
            report.test_metric > 0.57,
            "AUC {} too low",
            report.test_metric
        );
    }

    #[test]
    #[should_panic(expected = "invalid LumosConfig.eval_every")]
    fn zero_eval_every_is_rejected_before_any_work() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let mut cfg = smoke_config(TaskKind::Supervised);
        cfg.eval_every = 0;
        run_lumos(&ds, &cfg);
    }

    #[test]
    #[should_panic(expected = "invalid LumosConfig.epsilon")]
    fn zero_epsilon_is_rejected_at_entry_not_in_the_exchange() {
        // Regression: ε = 0 used to pass the constructor and panic inside
        // the LDP mechanism, three crates down.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let mut cfg = smoke_config(TaskKind::Supervised);
        cfg.epsilon = 0.0;
        run_lumos(&ds, &cfg);
    }

    #[test]
    fn loss_decreases_during_training() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(40);
        let report = run_lumos(&ds, &cfg);
        let first = report.history.first().unwrap().loss;
        let last = report.history.last().unwrap().loss;
        assert!(last < first, "loss {first} → {last} must decrease");
    }

    #[test]
    fn trimming_reduces_messages_and_max_workload() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let trimmed = run_lumos(&ds, &smoke_config(TaskKind::Supervised).with_epochs(3));
        let untrimmed = run_lumos(
            &ds,
            &smoke_config(TaskKind::Supervised)
                .with_epochs(3)
                .without_tree_trimming(),
        );
        assert!(
            trimmed.avg_messages_per_device_per_epoch < untrimmed.avg_messages_per_device_per_epoch,
            "trimming must cut communication: {} vs {}",
            trimmed.avg_messages_per_device_per_epoch,
            untrimmed.avg_messages_per_device_per_epoch
        );
        assert!(trimmed.constructor.max_workload < untrimmed.constructor.max_workload);
        assert!(trimmed.avg_epoch_makespan < untrimmed.avg_epoch_makespan);
    }

    #[test]
    fn bitsliced_backend_is_outcome_identical_with_cheaper_crypto() {
        // The comparison engine decides only *how* orderings are computed:
        // the trees, and therefore the entire training trajectory, must be
        // bit-identical — while the constructor's secure traffic collapses.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(5);
        let scalar = run_lumos(&ds, &cfg);
        let sliced = run_lumos(
            &ds,
            &cfg.clone()
                .with_compare_backend(lumos_balance::CompareBackend::Bitsliced),
        );
        assert_eq!(scalar.test_metric.to_bits(), sliced.test_metric.to_bits());
        assert_eq!(scalar.final_loss().to_bits(), sliced.final_loss().to_bits());
        assert_eq!(
            scalar.constructor.max_workload,
            sliced.constructor.max_workload
        );
        assert_eq!(
            scalar.constructor.comparisons,
            sliced.constructor.comparisons
        );
        assert!(
            sliced.constructor.secure_comm.messages * 8 < scalar.constructor.secure_comm.messages,
            "bit-slicing must collapse constructor traffic: {} vs {}",
            sliced.constructor.secure_comm.messages,
            scalar.constructor.secure_comm.messages
        );
    }

    #[test]
    fn ablation_without_virtual_nodes_runs() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(5)
            .without_virtual_nodes();
        let report = run_lumos(&ds, &cfg);
        assert!(report.test_metric > 0.0);
    }

    #[test]
    fn scenario_overlay_reports_sim_without_changing_training() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(6);
        let plain = run_lumos(&ds, &cfg);
        let hetero = run_lumos(
            &ds,
            &cfg.clone()
                .with_scenario(lumos_sim::Scenario::StragglerTail),
        );
        // Timing overlay only: the learned model is bit-identical.
        assert_eq!(plain.test_metric.to_bits(), hetero.test_metric.to_bits());
        assert_eq!(plain.final_loss().to_bits(), hetero.final_loss().to_bits());
        assert!(plain.sim.is_none());
        let sim = hetero.sim.expect("scenario run must report sim stats");
        assert_eq!(sim.scenario, "straggler-tail");
        assert_eq!(sim.straggler_sequence.len(), 6);
        assert!(sim.total_virtual_secs > 0.0);
        assert!(sim.avg_epoch_virtual_secs > 0.0);
        assert!(sim.mean_utilization > 0.0 && sim.mean_utilization <= 1.0);
        assert_eq!(sim.dropped_device_rounds, 0);
        assert_eq!(sim.late_drops, 0, "full-sync never drops");
        assert!(sim.dominant_straggler().is_some());
    }

    #[test]
    fn deadline_policy_drops_stragglers_and_shortens_epochs() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let full = run_lumos(&ds, &base);
        let deadline = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 }),
        );
        let (fs, ds_sim) = (full.sim.clone().unwrap(), deadline.sim.clone().unwrap());
        // The Pareto tail lands past 2× the median every round.
        assert!(ds_sim.late_drops > 0, "straggler tail must breach deadline");
        assert_eq!(fs.late_drops, 0);
        // Dropping them closes the barrier earlier.
        assert!(
            ds_sim.avg_epoch_virtual_secs < fs.avg_epoch_virtual_secs,
            "deadline {} must undercut full-sync {}",
            ds_sim.avg_epoch_virtual_secs,
            fs.avg_epoch_virtual_secs
        );
        // And fewer updates cross the wire.
        assert!(
            deadline.avg_messages_per_device_per_epoch < full.avg_messages_per_device_per_epoch
        );
        // By design NOT a timing overlay: the pooled update changed.
        assert_ne!(
            full.final_loss().to_bits(),
            deadline.final_loss().to_bits(),
            "dropping updates must change the training math"
        );
        // Still learns on the surviving cohort.
        assert!(deadline.test_metric > 0.3);
    }

    #[test]
    fn deadline_policy_is_inert_without_a_scenario() {
        // No profiles → no timing signal → FullSync behavior, bit for bit.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(5);
        let plain = run_lumos(&ds, &cfg);
        let polled = run_lumos(
            &ds,
            &cfg.clone()
                .with_aggregation_policy(AggregationPolicy::Deadline { factor: 1.5 }),
        );
        assert_eq!(plain.test_metric.to_bits(), polled.test_metric.to_bits());
        assert_eq!(plain.final_loss().to_bits(), polled.final_loss().to_bits());
        assert_eq!(
            plain.avg_messages_per_device_per_epoch.to_bits(),
            polled.avg_messages_per_device_per_epoch.to_bits()
        );
        assert!(polled.sim.is_none());
    }

    #[test]
    fn deadline_runs_are_seed_deterministic() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_scenario(lumos_sim::Scenario::StragglerTail)
            .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 });
        let a = run_lumos(&ds, &cfg);
        let b = run_lumos(&ds, &cfg);
        assert_eq!(a.test_metric.to_bits(), b.test_metric.to_bits());
        assert_eq!(a.final_loss().to_bits(), b.final_loss().to_bits());
        let (sa, sb) = (a.sim.unwrap(), b.sim.unwrap());
        assert_eq!(sa.late_drops, sb.late_drops);
        assert_eq!(sa.straggler_sequence, sb.straggler_sequence);
        assert_eq!(
            sa.total_virtual_secs.to_bits(),
            sb.total_virtual_secs.to_bits()
        );
    }

    #[test]
    fn uniform_scenario_beats_straggler_tail_on_makespan() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(4);
        let uniform = run_lumos(
            &ds,
            &cfg.clone().with_scenario(lumos_sim::Scenario::Uniform),
        );
        let tail = run_lumos(
            &ds,
            &cfg.clone()
                .with_scenario(lumos_sim::Scenario::StragglerTail),
        );
        let (u, t) = (uniform.sim.unwrap(), tail.sim.unwrap());
        assert!(
            u.avg_epoch_virtual_secs < t.avg_epoch_virtual_secs,
            "uniform {} must undercut straggler-tail {}",
            u.avg_epoch_virtual_secs,
            t.avg_epoch_virtual_secs
        );
    }

    #[test]
    fn churn_scenario_drops_devices() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(8)
            .with_scenario(lumos_sim::Scenario::Churn);
        let report = run_lumos(&ds, &cfg);
        let sim = report.sim.unwrap();
        // 300 devices × 10% dropout × 8 rounds ⇒ churn must bite.
        assert!(sim.dropped_device_rounds > 0);
    }

    #[test]
    fn churn_silences_absent_devices() {
        // Regression: churn used to be a pure timing overlay — absent
        // devices kept sending protocol messages and pooling their
        // embeddings as if they had never left.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(8);
        let plain = run_lumos(&ds, &cfg);
        let churn = run_lumos(&ds, &cfg.clone().with_scenario(lumos_sim::Scenario::Churn));
        let sim = churn.sim.clone().unwrap();
        assert!(sim.dropped_device_rounds > 0, "churn must bite");
        assert!(
            churn.avg_messages_per_device_per_epoch < plain.avg_messages_per_device_per_epoch,
            "absent devices must send nothing: churn {} vs frozen fleet {}",
            churn.avg_messages_per_device_per_epoch,
            plain.avg_messages_per_device_per_epoch
        );
        assert_ne!(
            plain.final_loss().to_bits(),
            churn.final_loss().to_bits(),
            "absent devices must leave the POOL"
        );
    }

    #[test]
    fn no_self_addressed_negative_fetches() {
        // Regression: the uniform attribution of negative-sample transfers
        // maps index 0 to the pair (0, 0) — a device fetching its own
        // embedding — which used to be recorded as wire traffic.
        let ds = Dataset::lastfm_like(Scale::Smoke);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let split = EdgeSplit::uniform(&ds.graph, &mut rng);
        let n = ds.num_nodes();
        let trees: Vec<DeviceTree> = (0..n as u32)
            .map(|v| DeviceTree::build(LocalGraphKind::VirtualNodeTree, v, vec![]))
            .collect();
        let mut net = SimNetwork::new(n);
        let snap = net.snapshot();
        record_epoch_messages(&trees, &mut net, Some(&split.train_edges), &[], &[]);
        let work = ledger_work(&net, &snap, &vec![0; n], 1);
        assert!((0..n).any(|d| !work.inbound(d).is_empty()));
        for to in 0..n {
            for &(from, _) in work.inbound(to) {
                assert_ne!(from as usize, to, "self-addressed message on the ledger");
            }
        }
    }

    #[test]
    fn buffered_policy_banks_late_updates_and_keeps_the_makespan_win() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let full = run_lumos(&ds, &base);
        let deadline = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 }),
        );
        let buffered = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Buffered {
                    factor: 2.0,
                    decay: 0.5,
                }),
        );
        let fs = full.sim.clone().unwrap();
        let dsim = deadline.sim.clone().unwrap();
        let bs = buffered.sim.clone().unwrap();
        // Late work is banked for a later round, never discarded — but what
        // the last round banks has no later round to land in, and the last
        // record says so.
        assert!(bs.buffered_updates > 0, "tail must breach the deadline");
        let last = buffered.rounds.last().and_then(|r| r.sim.as_ref()).unwrap();
        assert!(last.carried > 0, "the tail breaches the last deadline too");
        assert!(last.in_flight >= last.carried, "and none of those can land");
        assert_eq!(bs.wasted_updates, 0, "buffered never wastes an update");
        assert!(dsim.wasted_updates > 0, "deadline discards late work");
        assert_eq!(fs.wasted_updates, 0);
        // The barrier win survives the buffering.
        let deadline_win = fs.avg_epoch_virtual_secs - dsim.avg_epoch_virtual_secs;
        let buffered_win = fs.avg_epoch_virtual_secs - bs.avg_epoch_virtual_secs;
        assert!(deadline_win > 0.0);
        assert!(
            buffered_win >= 0.95 * deadline_win,
            "buffered win {buffered_win} must keep ≥95% of the deadline win {deadline_win}"
        );
        // Blending stale updates is a genuinely different trajectory from
        // dropping them (and from never cutting at all).
        assert_ne!(
            buffered.final_loss().to_bits(),
            deadline.final_loss().to_bits()
        );
        assert_ne!(buffered.final_loss().to_bits(), full.final_loss().to_bits());
        assert!(buffered.test_metric > 0.3);
    }

    #[test]
    fn stale_weights_decay_monotonically() {
        // An older update never outweighs a fresher one, every weight stays
        // in [0, 1], and a policy that carries nothing does not discount.
        for decay in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let mut prev = 1.0f64;
            for s in 1..=lumos_sim::STALENESS_CAP {
                let w = stale_weight(Some(decay), s);
                assert!((0.0..=1.0).contains(&w), "weight {w} out of range");
                assert!(w <= prev, "weight rose with age: {w} > {prev}");
                prev = w;
            }
        }
        assert_eq!(stale_weight(Some(0.5), 2), 0.25);
        assert_eq!(stale_weight(None, 3), 1.0);
    }

    #[test]
    fn carried_updates_pool_at_their_decayed_weight_in_the_arrival_round() {
        let cfg = smoke_config(TaskKind::Supervised)
            .with_scenario(lumos_sim::Scenario::Uniform)
            .with_aggregation_policy(AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            });
        let (mut fleet, _) = Fleet::muster(4, &cfg, 2);
        fleet.runtime.carry(1, vec![1], Vec::new());
        fleet.runtime.carry(2, vec![3], Vec::new());
        // Round +1: the staleness-1 update blends in at 0.5, on top of its
        // device's own on-time update; device 2 is absent this round.
        let mut judged = Judged {
            dropped: vec![2],
            ..Judged::default()
        };
        assert_eq!(fleet.pool_weights(&mut judged), [1.0, 1.5, 0.0, 1.0]);
        assert_eq!((judged.pooled, judged.arrived), (3, 1));
        // Round +2: the staleness-2 update arrives at 0.25 — its sender cut
        // again — beside two same-round arrivals of device 0, which add.
        fleet.runtime.carry(1, vec![0, 0], Vec::new());
        let mut judged = Judged {
            carried: vec![(3, 1)],
            ..Judged::default()
        };
        assert_eq!(fleet.pool_weights(&mut judged), [2.0, 1.0, 1.0, 0.25]);
        assert_eq!((judged.pooled, judged.arrived), (3, 3));
        assert_eq!(fleet.runtime.in_flight(), 0);
    }

    #[test]
    fn the_epoch_loop_laps_exactly_the_epoch_phases_and_evaluate() {
        // `RunFootprint::secs_per_epoch` names its phases; this run enters
        // every one the loop has (it migrates), after the one-off ones.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(8)
            .with_scenario(lumos_sim::Scenario::Churn)
            .with_aggregation_policy(AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            });
        let (report, footprint) = run_lumos_measured(&ds, &cfg);
        assert!(report.sim.unwrap().migrations >= 1);
        let names: Vec<&str> = footprint.phase_secs.iter().map(|p| p.0).collect();
        let one_off = names.iter().position(|&p| p == "model_init").unwrap() + 1;
        let mut in_loop = names[one_off..].to_vec();
        in_loop.sort_unstable();
        let mut expected = RunFootprint::EPOCH_PHASES.to_vec();
        expected.push("evaluate");
        expected.sort_unstable();
        assert_eq!(in_loop, expected);
    }

    #[test]
    fn the_tape_holds_a_few_activations_per_tree_node() {
        // What a step's tape keeps — on its nodes, then on its free list
        // for the next step — is what its adjoints read: a handful of
        // `[tree nodes × hidden]` activations and gradients. Keeping every
        // activation and interior gradient held 17.6 of them here; releasing
        // what no layer's adjoint reads held 6.3; releasing each value after
        // its last reader (inside a GCN layer, and the encoder's output and
        // the gathered leaves before the sweep), with a one-bit dropout mask
        // and dropout before ReLU, holds 3.2 (link prediction: 8.6 → 5.6).
        let ds = Dataset::facebook_like(Scale::Smoke);
        for (task, bound) in [(TaskKind::Supervised, 4.0), (TaskKind::Unsupervised, 6.5)] {
            let cfg = smoke_config(task).with_epochs(3);
            let (report, footprint) = run_lumos_measured(&ds, &cfg);
            // A tree is its root and three nodes per retained neighbor, or
            // the lone center of a device that kept none.
            let tree_nodes: usize = (report.constructor.workloads.iter())
                .map(|&wl| if wl == 0 { 1 } else { 1 + 3 * wl })
                .sum();
            let hidden = EncoderConfig::paper(cfg.backbone, ds.feature_dim).hidden_dim;
            let activation = tree_nodes * hidden * std::mem::size_of::<f32>();
            let (_, tape) = (footprint.bytes.iter())
                .find(|(owner, _)| *owner == "tape nodes + free list")
                .expect("the tape's row");
            let k = *tape as f64 / activation as f64;
            assert!(
                k < bound,
                "{task:?}: the tape holds {k:.2} activations of {activation} B"
            );
        }
    }

    #[test]
    fn async_quorum_closes_rounds_early_and_never_drops() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let full = run_lumos(&ds, &base);
        // 80% quorum: the round closes when 4 of every 5 updates land —
        // the Pareto tail stops gating the barrier entirely.
        let quorum = ds.num_nodes() * 4 / 5;
        let asynced = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Async {
                    min_updates: quorum,
                }),
        );
        let fs = full.sim.clone().unwrap();
        let asim = asynced.sim.clone().unwrap();
        // Nothing is dropped and nothing is wasted: the overflow rides the
        // staleness buffer into the next round at full weight.
        assert_eq!(asim.late_drops, 0, "the quorum never drops");
        assert_eq!(asim.wasted_updates, 0, "the quorum never wastes");
        assert!(asim.buffered_updates > 0, "the overflow must be carried");
        // Closing at the quorum beats waiting for the straggler tail.
        assert!(
            asim.avg_epoch_virtual_secs < fs.avg_epoch_virtual_secs,
            "async {} must undercut full-sync {}",
            asim.avg_epoch_virtual_secs,
            fs.avg_epoch_virtual_secs
        );
        // A genuinely different trajectory that still learns.
        assert_ne!(asynced.final_loss().to_bits(), full.final_loss().to_bits());
        assert!(asynced.test_metric > 0.3);
    }

    #[test]
    fn hierarchical_cut_keeps_the_makespan_win() {
        // Late devices stay on the round's schedule, planned deliveries and
        // all. An aggregator that folded them into its readiness would put
        // every tiered early-closing round back at the full barrier.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_scenario(lumos_sim::Scenario::StragglerTail)
            .with_topology(lumos_topo::TopologyConfig::Hierarchical { aggregators: 8 });
        let secs = |cfg: &LumosConfig| run_lumos(&ds, cfg).sim.unwrap().avg_epoch_virtual_secs;
        let full = secs(&base);
        for policy in [
            AggregationPolicy::Deadline { factor: 2.0 },
            AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            },
            AggregationPolicy::Async {
                min_updates: ds.num_nodes() * 4 / 5,
            },
        ] {
            let cut = secs(&base.clone().with_aggregation_policy(policy));
            assert!(
                cut < full / 10.0,
                "{policy:?}: {cut} s per epoch against the barrier's {full} s"
            );
        }
    }

    #[test]
    fn zero_decay_buffered_collapses_to_deadline_bitwise() {
        // `decay = 0` means an update arriving late is worth nothing —
        // exactly the deadline policy, and the runs must agree bit for bit.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let deadline = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 }),
        );
        let collapsed = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Buffered {
                    factor: 2.0,
                    decay: 0.0,
                }),
        );
        assert_eq!(
            deadline.test_metric.to_bits(),
            collapsed.test_metric.to_bits()
        );
        assert_eq!(
            deadline.final_loss().to_bits(),
            collapsed.final_loss().to_bits()
        );
        assert_eq!(
            deadline.avg_messages_per_device_per_epoch.to_bits(),
            collapsed.avg_messages_per_device_per_epoch.to_bits()
        );
        assert_eq!(deadline.sim, collapsed.sim);
    }

    #[test]
    fn buffered_churn_run_performs_live_migrations() {
        // Devices that sit out consecutive rounds are priced at 4× their
        // nominal rate, sail past the 2× fleet-mean threshold, and must
        // have their tree nodes migrated to cheaper endpoints.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(8)
            .with_scenario(lumos_sim::Scenario::Churn)
            .with_aggregation_policy(AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            });
        let report = run_lumos(&ds, &cfg);
        let sim = report.sim.unwrap();
        assert!(
            sim.migrations >= 1,
            "sustained churn overload must trigger a live migration"
        );
        assert!(sim.migrated_nodes >= 1);
        assert!(report.test_metric > 0.3, "still learns through churn");
    }

    #[test]
    fn runs_are_deterministic_under_seed() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(5);
        let a = run_lumos(&ds, &cfg);
        let b = run_lumos(&ds, &cfg);
        assert_eq!(a.test_metric, b.test_metric);
        assert_eq!(a.final_loss(), b.final_loss());
    }

    #[test]
    fn hierarchical_run_learns_and_differs_from_flat() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised);
        let flat = run_lumos(&ds, &cfg);
        let tiered = run_lumos(
            &ds,
            &cfg.clone()
                .with_topology(lumos_topo::TopologyConfig::Hierarchical { aggregators: 4 }),
        );
        // Sharded balance reshapes the trees, so the trajectory genuinely
        // changes — and still clearly beats random guessing.
        assert!(
            tiered.test_metric > 0.4,
            "hierarchical accuracy {} too low",
            tiered.test_metric
        );
        assert_ne!(
            flat.final_loss().to_bits(),
            tiered.final_loss().to_bits(),
            "per-shard balancing must change tree placement"
        );
        // Per-shard MCMC compares devices only inside their own lanes.
        assert!(tiered.constructor.comparisons < flat.constructor.comparisons);
    }

    #[test]
    fn hierarchical_runs_are_seed_deterministic() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_topology(lumos_topo::TopologyConfig::Hierarchical { aggregators: 3 })
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let a = run_lumos(&ds, &cfg);
        let b = run_lumos(&ds, &cfg);
        assert_eq!(a.test_metric.to_bits(), b.test_metric.to_bits());
        assert_eq!(a.final_loss().to_bits(), b.final_loss().to_bits());
        let (sa, sb) = (a.sim.unwrap(), b.sim.unwrap());
        assert_eq!(
            sa.total_virtual_secs.to_bits(),
            sb.total_virtual_secs.to_bits()
        );
    }

    #[test]
    fn single_aggregator_topology_collapses_to_flat_bitwise() {
        // `Hierarchical { aggregators: 1 }` resolves to `Flat` up front —
        // one aggregator that hears every device and forwards one partial
        // IS the server's front door, so the whole run must agree bit for
        // bit with the flat path (satellite 3: RunReport identity).
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(5)
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let flat = run_lumos(&ds, &cfg);
        let one = run_lumos(
            &ds,
            &cfg.clone()
                .with_topology(lumos_topo::TopologyConfig::Hierarchical { aggregators: 1 }),
        );
        assert_eq!(flat.test_metric.to_bits(), one.test_metric.to_bits());
        assert_eq!(flat.final_loss().to_bits(), one.final_loss().to_bits());
        assert_eq!(
            flat.avg_messages_per_device_per_epoch.to_bits(),
            one.avg_messages_per_device_per_epoch.to_bits()
        );
        assert_eq!(
            flat.avg_epoch_makespan.to_bits(),
            one.avg_epoch_makespan.to_bits()
        );
        assert_eq!(flat.constructor.comparisons, one.constructor.comparisons);
        assert_eq!(flat.sim, one.sim);
    }

    #[test]
    fn hierarchical_scenario_run_pays_the_aggregator_hop() {
        // With profiles installed, the epoch barrier extends to the last
        // aggregator partial's arrival at the server.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_topology(lumos_topo::TopologyConfig::Hierarchical { aggregators: 4 })
            .with_scenario(lumos_sim::Scenario::Uniform);
        let report = run_lumos(&ds, &cfg);
        let sim = report.sim.expect("scenario run must report sim stats");
        assert!(sim.total_virtual_secs > 0.0);
        assert!(report.avg_epoch_makespan > 0.0);
        // 4 epochs is a smoke run: just confirm it trains at all.
        assert!(report.test_metric > 0.25);
    }

    #[test]
    fn default_rebalance_trigger_is_bit_identical_to_explicit_defaults() {
        // Satellite 1 regression: exposing the re-balancer knobs through
        // the config must leave the default trajectory untouched.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(8)
            .with_scenario(lumos_sim::Scenario::Churn)
            .with_aggregation_policy(AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            });
        let implicit = run_lumos(&ds, &base);
        let explicit = run_lumos(&ds, &base.clone().with_rebalance_trigger(2.0, 2));
        assert_eq!(
            implicit.test_metric.to_bits(),
            explicit.test_metric.to_bits()
        );
        assert_eq!(
            implicit.final_loss().to_bits(),
            explicit.final_loss().to_bits()
        );
        assert_eq!(implicit.sim, explicit.sim);
    }

    #[test]
    fn hair_trigger_rebalance_migrates_at_least_as_eagerly() {
        // A 1.01× threshold with single-round patience fires on any
        // overload the default (2×, 2 rounds) would have tolerated.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(8)
            .with_scenario(lumos_sim::Scenario::Churn)
            .with_aggregation_policy(AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            });
        let default = run_lumos(&ds, &base);
        let eager = run_lumos(&ds, &base.clone().with_rebalance_trigger(1.01, 1));
        let (d, e) = (default.sim.unwrap(), eager.sim.unwrap());
        assert!(
            e.migrations >= d.migrations,
            "hair trigger must migrate at least as often: {} vs {}",
            e.migrations,
            d.migrations
        );
        assert!(e.migrations >= 1);
    }
}
