//! The tree-based GNN trainer (§VI) and the end-to-end Lumos pipeline.
//!
//! Pipeline per run: split the graph into ego networks → construct trimmed
//! trees (§V) → LDP feature exchange (§VI-A) → per-epoch message passing on
//! every tree with shared weights, POOL across devices (Eq. 31), loss
//! computation (§VI-C), synchronized gradient update — with every
//! inter-device message recorded on the federated runtime's ledger.

use std::rc::Rc;

use lumos_balance::{rebalance_assignment, Assignment, BalanceObjective};
use lumos_common::rng::Xoshiro256pp;
use lumos_data::{Dataset, EdgeSplit, NodeSplit};
use lumos_fed::{ledger_work, CostModel, RoundOutcome, Runtime, SimNetwork, TierSpec};
use lumos_gnn::{
    accuracy_masked, cross_entropy_masked, link_logits, link_prediction_loss, roc_auc,
    EncoderConfig, GnnEncoder, LinearDecoder,
};
use lumos_graph::Graph;
use lumos_tensor::{Adam, ParamStore, Tape, VarId};

use lumos_sim::{
    AggregationPolicy, DeviceProfile, DeviceWork, EventDrivenRuntime, FaultPlan, FaultState,
    RoundPolicy, ScenarioState, StalenessBuffer,
};
use lumos_topo::{ShardRoundPolicies, Topology};

use crate::batch::{build_batched, BatchedTrees, PoolArrays};
use crate::config::{LumosConfig, TaskKind};
use crate::constructor::{construct_assignment, construct_assignment_sharded};
use crate::init::{exchange_features, exchange_missing_features};
use crate::report::{EpochMetrics, RunReport, SimSummary};
use crate::tree::{DeviceTree, LocalGraphKind};

/// Paired endpoint lists of positive training edges.
type PairLists = (Rc<Vec<u32>>, Rc<Vec<u32>>);

/// The round's timing probe. The per-round message pattern is static
/// between migrations (same trees, same protocol every epoch), so one dry
/// run of the recorder yields the per-destination work whose simulated
/// timing decides, each round, which updates the policy cuts.
struct LateProbe {
    template: Vec<DeviceWork>,
    /// Memo key: the fleet the probe last ran against (`None`: not yet).
    /// The verdicts are a pure function of (fleet, template).
    fleet: Option<Vec<DeviceProfile>>,
    /// Memo value: the `(device, staleness)` pairs cut on that fleet.
    verdicts: Vec<(u32, u32)>,
}

/// What a round's timing decided, before any training math runs. All empty
/// without a scenario.
#[derive(Default)]
struct Judged {
    /// The round's compiled fault outcomes (`None`: fault-free).
    plan: Option<FaultPlan>,
    /// Devices the policy cut from the barrier, carried or not.
    late: Vec<u32>,
    /// Updates that never reach anyone: churned-out and crashed devices,
    /// and what a non-carrying policy cut.
    dropped: Vec<u32>,
    /// `(device, staleness)` of updates that arrive `staleness` rounds
    /// late: what a carrying policy cut, and uploads that ran out their
    /// retry budget (one round).
    carried: Vec<(u32, u32)>,
}

/// Embedding size of a pooled vertex message on the wire (16 f32 values).
const EMBEDDING_BYTES: u64 = 16 * 4;

/// Runs the full Lumos system on a dataset and returns the report.
pub fn run_lumos(ds: &Dataset, cfg: &LumosConfig) -> RunReport {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let n = ds.num_nodes();

    // Task-specific splits. Link prediction trains on the 80% train-edge
    // graph; classification trains on the full graph with node masks.
    let node_split;
    let edge_split;
    let train_graph: Graph = match cfg.task {
        TaskKind::Supervised => {
            node_split = Some(NodeSplit::uniform(n, &mut rng));
            edge_split = None;
            ds.graph.clone()
        }
        TaskKind::Unsupervised => {
            let split = EdgeSplit::uniform(&ds.graph, &mut rng);
            let g = split.train_graph(n);
            edge_split = Some(split);
            node_split = None;
            g
        }
    };

    // Fleet and runtime come up before the constructor so the VirtualSecs
    // objective can price each device's tree nodes. The fleet draws from
    // its own seed-derived RNG stream, so enabling a scenario changes
    // timing statistics (and, under VirtualSecs, tree placement) only —
    // never the trainer's stochastic streams.
    let mut runtime = Runtime::new(n, CostModel::default());
    runtime.set_embedding_bytes(EMBEDDING_BYTES);
    let mut scenario = cfg.scenario.map(|s| ScenarioState::new(s, n, cfg.seed));
    if let Some(state) = &scenario {
        runtime.set_profiles(state.profiles().to_vec());
    }
    let enc_cfg = EncoderConfig::paper(cfg.backbone, ds.feature_dim);
    let node_costs = match cfg.balance_objective {
        BalanceObjective::TreeNodes => None,
        // Without a scenario there are no profiles to price with, so this
        // silently degenerates to the node-count objective.
        BalanceObjective::VirtualSecs => {
            runtime.node_costs_micros(enc_cfg.num_layers, EMBEDDING_BYTES)
        }
    };

    // Aggregation topology (hierarchical mode). A single-aggregator tree
    // resolves to the flat topology up front (`TopologyConfig::effective`),
    // so `topology` is `Some` only with ≥ 2 real shards. Device→shard
    // placement is cost-aware when per-device prices exist, seeded
    // otherwise — and static thereafter: live re-balancing migrates tree
    // nodes between devices, never devices between aggregators.
    let topology: Option<Topology> =
        cfg.topology
            .effective(n)
            .aggregators()
            .map(|k| match node_costs.as_deref() {
                Some(costs) => Topology::cost_balanced(costs, k),
                None => Topology::seeded(n, k, cfg.seed),
            });
    if let Some(topo) = &topology {
        // The compact per-shard ledger replaces the per-edge matrix —
        // memory stays O(devices + aggregators) — and the tier spec makes
        // every profiled epoch's makespan run through the aggregators.
        runtime.network = SimNetwork::new_sharded(topo.shard_vector());
        runtime.set_tier(TierSpec {
            topology: topo.clone(),
            aggregator: DeviceProfile::baseline(),
            partial_bytes: EMBEDDING_BYTES,
        });
    }

    // Phase 1: heterogeneity-aware tree constructor (§V); in hierarchical
    // mode each shard balances independently inside its own secure lanes.
    let (mut assignment, constructor) = match &topology {
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

    let kind = if cfg.virtual_nodes {
        LocalGraphKind::VirtualNodeTree
    } else {
        LocalGraphKind::RawEgoNetwork
    };
    let build_trees = |assignment: &Assignment| -> Vec<DeviceTree> {
        (0..n as u32)
            .map(|v| DeviceTree::build(kind, v, assignment.kept(v).to_vec()))
            .collect()
    };
    let mut trees = build_trees(&assignment);

    // Phase 2: LDP embedding initialization (§VI-A).
    let mut exchange = exchange_features(
        &ds.features,
        ds.feature_dim,
        &trees,
        cfg.epsilon,
        &mut rng,
        &mut runtime.network,
    );
    let init_messages = exchange.messages;
    let mut batch = build_batched(&trees, &ds.features, ds.feature_dim, &exchange);

    // The round is resolved once, here. Policy and faults both ride on the
    // fleet's profiles, so without a scenario there is nothing to time,
    // cut, crash or delay against and every round is the paper's
    // synchronous barrier. `resolve` additionally folds
    // `Buffered { decay: 0 }` into `Deadline` and a full-fleet `Async`
    // quorum into `FullSync`, so both bit-for-bit collapses hold by
    // construction. The fault stream draws from its own domain-separated
    // RNG: enabling it never perturbs the trainer's or the fleet's streams.
    let policy = if scenario.is_some() {
        cfg.aggregation_policy.resolve(n)
    } else {
        AggregationPolicy::FullSync
    };
    let mut faults: Option<FaultState> = (scenario.is_some() && !cfg.faults.is_none())
        .then(|| FaultState::new(cfg.faults.clone(), cfg.recovery, cfg.seed));
    // The one mode flag: whether the policy carries what it cuts into a
    // later round, or cuts nothing / discards it.
    let decay = carry_decay(&policy);
    let carries = decay.is_some();
    // Updates that arrive in a later round wait here: the cuts of a
    // carrying policy, and — under any policy — uploads that ran out their
    // retry budget, which degrade to one round late instead of vanishing.
    let mut staleness_buffer = StalenessBuffer::new(decay.unwrap_or(1.0));

    let layers = enc_cfg.num_layers;
    let build_template = |trees: &[DeviceTree], tree_sizes: &[usize]| -> Vec<DeviceWork> {
        // The probe must mirror the live network's mode: a sharded ledger
        // yields the aggregate inbound schedule the real epochs will run.
        let mut probe = match &topology {
            Some(topo) => SimNetwork::new_sharded(topo.shard_vector()),
            None => SimNetwork::new(n),
        };
        let snap = probe.snapshot();
        record_epoch_messages(
            trees,
            cfg,
            &mut probe,
            edge_split.as_ref(),
            &[],
            &[],
            topology.as_ref(),
        );
        ledger_work(&probe, &snap, tree_sizes, layers)
    };
    let mut probe: Option<LateProbe> = (policy != AggregationPolicy::FullSync)
        .then(|| LateProbe::new(build_template(&trees, &batch.tree_sizes)));
    // The re-balancer's per-device overload streaks.
    let mut streaks: Vec<u32> = vec![0; n];
    let mut migrations = 0u64;
    let mut migrated_nodes = 0u64;

    // Phase 3: model setup (§VIII-B hyperparameters).
    let mut store = ParamStore::new();
    let encoder = GnnEncoder::new(&mut store, &enc_cfg, &mut rng);
    let decoder = match cfg.task {
        TaskKind::Supervised => Some(LinearDecoder::new(
            &mut store,
            "head",
            encoder.out_dim(),
            ds.num_classes,
            &mut rng,
        )),
        TaskKind::Unsupervised => None,
    };
    let mut opt = Adam::new(cfg.lr);

    let mut report = RunReport::new("lumos", &ds.name, cfg.backbone.name(), cfg.task.name());
    report.constructor = constructor;
    report.init_messages = init_messages;

    // Supervised target/mask buffers.
    let targets = Rc::new(ds.labels.clone());
    let train_mask: Option<Rc<Vec<f32>>> = node_split.as_ref().map(|s| {
        Rc::new(
            s.train_mask
                .iter()
                .map(|&b| if b { 1.0 } else { 0.0 })
                .collect::<Vec<f32>>(),
        )
    });
    // Unsupervised positive pairs (training edges).
    let pos_pairs: Option<PairLists> = edge_split.as_ref().map(|s| {
        let src: Vec<u32> = s.train_edges.iter().map(|&(u, _)| u).collect();
        let dst: Vec<u32> = s.train_edges.iter().map(|&(_, v)| v).collect();
        (Rc::new(src), Rc::new(dst))
    });

    // Phase 4: synchronized training epochs.
    let mut best_val = 0.0f64;
    // Per-round memo: rebuild the POOL arrays only when the weight vector
    // itself changed.
    let mut weight_cache: Option<(Vec<f32>, PoolArrays)> = None;
    // One tape's buffers serve every step and every evaluation of the run.
    // The tape borrows `batch.features`, which a migration replaces, so it
    // is parked here — emptied, borrowing nothing — between epochs.
    let mut idle_tape = Tape::new();
    for epoch in 0..cfg.epochs {
        if let Some(state) = &scenario {
            runtime.set_profiles(state.profiles().to_vec());
        }
        runtime.begin_epoch();
        if carries {
            // Live re-balancing: price the fleet as it stands (churn-absent
            // devices cost UNAVAILABLE_COST_FACTOR× their nominal rate) and
            // migrate tree nodes off devices whose price stayed too high
            // for too long.
            let prices = runtime
                .node_costs_micros(layers, EMBEDDING_BYTES)
                .expect("a carrying policy runs on a scenario's profiles");
            let moved = rebalance_overloaded(&mut assignment, &prices, &mut streaks, cfg);
            if moved > 0 {
                migrations += 1;
                migrated_nodes += moved as u64;
                trees = build_trees(&assignment);
                // Devices that just inherited a branch never held its
                // leaves' features: top up only the missing
                // (owner, neighbor) pairs, on this epoch's ledger.
                exchange_missing_features(
                    &ds.features,
                    ds.feature_dim,
                    &trees,
                    cfg.epsilon,
                    &mut rng,
                    &mut runtime.network,
                    &mut exchange,
                );
                // The cached arrays describe the old batch: free them
                // before its successor is built, not after.
                weight_cache = None;
                batch = build_batched(&trees, &ds.features, ds.feature_dim, &exchange);
                probe = Some(LateProbe::new(build_template(&trees, &batch.tree_sizes)));
            }
        }

        let judged = match &scenario {
            Some(state) => judge_round(
                state.profiles(),
                faults.as_mut(),
                probe.as_mut(),
                &policy,
                topology.as_ref(),
                &mut runtime,
            ),
            None => Judged::default(),
        };
        // Carried traffic from earlier rounds lands in this epoch's ledger
        // window — accounted in the round where it arrives, not the round
        // where it was cut.
        runtime.carry_in();

        // Weighted POOL (Eq. 31): a device whose update is missing this
        // round contributes nothing; carried updates blend back in at
        // `decay^staleness` in the round they arrive — even if their sender
        // is late or absent again (the update already landed).
        let mut weights = vec![1.0f32; n];
        let missing = judged.carried.iter().map(|(d, _)| d);
        for &d in judged.dropped.iter().chain(missing) {
            weights[d as usize] = 0.0;
        }
        for (w, arrived) in weights.iter_mut().zip(staleness_buffer.advance(n)) {
            *w += arrived as f32;
        }
        if weight_cache
            .as_ref()
            .is_none_or(|(cached, _)| *cached != weights)
        {
            let arrays = batch.weighted_pool(&weights);
            weight_cache = Some((weights, arrays));
        }
        let pool = &weight_cache.as_ref().expect("pool just cached").1;
        let mut tape = idle_tape.reset();
        let h = forward_pooled(
            &mut tape,
            &store,
            &encoder,
            &batch,
            true,
            &mut rng,
            pool,
            topology.as_ref(),
        );

        let loss_var: VarId = match cfg.task {
            TaskKind::Supervised => {
                let dec = decoder.as_ref().expect("supervised head");
                let logits = dec.forward(&mut tape, &store, h);
                cross_entropy_masked(
                    &mut tape,
                    logits,
                    targets.clone(),
                    train_mask.clone().expect("supervised mask"),
                )
            }
            TaskKind::Unsupervised => {
                let (src, dst) = pos_pairs.clone().expect("unsupervised pairs");
                let negs = lumos_data::sample_non_edges(
                    &ds.graph,
                    src.len() * cfg.negatives_per_positive,
                    &mut rng,
                );
                let neg_src: Rc<Vec<u32>> = Rc::new(negs.iter().map(|&(u, _)| u).collect());
                let neg_dst: Rc<Vec<u32>> = Rc::new(negs.iter().map(|&(_, v)| v).collect());
                let pos_logits = link_logits(&mut tape, h, src, dst);
                let neg_logits = link_logits(&mut tape, h, neg_src, neg_dst);
                link_prediction_loss(&mut tape, pos_logits, neg_logits)
            }
        };
        let loss = tape.value(loss_var).item() as f64;

        store.zero_grad();
        tape.accumulate_param_grads(&tape.backward(loss_var), &mut store);
        opt.step(&mut store);

        // Protocol message accounting for this epoch (§VI-B/C). Dropped and
        // carried devices are both silenced on this round's ledger and do
        // not gate the simulated barrier; the carried ones' sends are
        // collected and re-injected by `carry_in` in their arrival round.
        let deferred = record_epoch_messages(
            &trees,
            cfg,
            &mut runtime.network,
            edge_split.as_ref(),
            &judged.carried,
            &judged.dropped,
            topology.as_ref(),
        );
        for &(d, staleness) in &judged.carried {
            staleness_buffer.push(d, staleness);
            let sends = deferred
                .iter()
                .filter(|&&(from, _, _)| from == d)
                .copied()
                .collect();
            runtime.defer_sends(staleness, sends);
        }
        // The epoch's own simulation replays the crashes and retry chains
        // the probe saw, and under the async quorum closes the round at the
        // `min_updates`-th landing.
        runtime.end_epoch(
            &batch.tree_sizes,
            layers,
            RoundOutcome {
                late: &judged.late,
                quorum: match policy {
                    AggregationPolicy::Async { min_updates } => Some(min_updates),
                    _ => None,
                },
                faults: judged.plan.as_ref(),
            },
        );
        // Churn applies *between* rounds: the fleet after the last epoch is
        // never simulated, so advancing there would overcount drops.
        if epoch + 1 < cfg.epochs {
            if let Some(state) = &mut scenario {
                state.advance_round();
            }
        }

        // Periodic validation.
        if epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
            tape = tape.reset();
            let val = evaluate(
                &mut tape,
                &store,
                &encoder,
                decoder.as_ref(),
                &batch,
                ds,
                cfg,
                node_split.as_ref(),
                edge_split.as_ref(),
                false,
                &mut rng,
            );
            best_val = best_val.max(val);
            report.history.push(EpochMetrics {
                epoch,
                loss,
                val_metric: val,
            });
        }
        idle_tape = tape.reset();
    }

    // Phase 5: test metric.
    report.test_metric = evaluate(
        &mut idle_tape.reset(),
        &store,
        &encoder,
        decoder.as_ref(),
        &batch,
        ds,
        cfg,
        node_split.as_ref(),
        edge_split.as_ref(),
        true,
        &mut rng,
    );
    report.best_val_metric = best_val;
    report.avg_messages_per_device_per_epoch = runtime.avg_messages_per_device_per_epoch();
    report.avg_epoch_secs = runtime.avg_epoch_wall_secs();
    report.avg_epoch_makespan = runtime.avg_epoch_makespan();
    if let Some(state) = &scenario {
        let recovery = faults
            .as_ref()
            .map(|f| f.counters().clone())
            .unwrap_or_default();
        report.sim = Some(SimSummary {
            scenario: state.scenario().name().to_string(),
            total_virtual_secs: runtime.total_sim_secs(),
            avg_epoch_virtual_secs: runtime.avg_sim_epoch_secs(),
            straggler_sequence: runtime.straggler_sequence(),
            mean_utilization: runtime.mean_sim_utilization(),
            dropped_device_rounds: state.dropped_device_rounds(),
            late_drops: runtime.late_drops(),
            buffered_updates: staleness_buffer.total_buffered(),
            // Only a policy that discards its cuts wastes them.
            wasted_updates: if carries { 0 } else { runtime.late_drops() },
            migrations,
            migrated_nodes,
            lost_messages: recovery.lost_messages,
            retries: recovery.retries,
            retry_secs: recovery.retry_secs,
            crashed_devices: recovery.crashed_devices,
            failovers: recovery.failovers,
        });
    }
    report
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

/// Migrates tree nodes off every device whose per-node price stayed above
/// `cfg.rebalance_threshold ×` the fleet mean for `cfg.rebalance_patience`
/// consecutive rounds (its streak then restarts). Returns the nodes moved.
fn rebalance_overloaded(
    assignment: &mut Assignment,
    prices: &[u64],
    streaks: &mut [u32],
    cfg: &LumosConfig,
) -> usize {
    let mean = prices.iter().map(|&p| p as f64).sum::<f64>() / prices.len().max(1) as f64;
    let mut overloaded = Vec::new();
    for (d, &p) in prices.iter().enumerate() {
        if p as f64 > cfg.rebalance_threshold * mean {
            streaks[d] += 1;
            if streaks[d] >= cfg.rebalance_patience {
                overloaded.push(d as u32);
                streaks[d] = 0;
            }
        } else {
            streaks[d] = 0;
        }
    }
    if overloaded.is_empty() {
        return 0;
    }
    rebalance_assignment(assignment, prices, &overloaded).moved_nodes
}

/// Judges one round on the fleet as it stands: who is churned out, who
/// crashes mid-round, whose upload exhausts its retry budget (both from the
/// fault plan compiled here, before any traffic lands on the ledger), and
/// whose update the policy cuts.
fn judge_round(
    profiles: &[DeviceProfile],
    faults: Option<&mut FaultState>,
    probe: Option<&mut LateProbe>,
    policy: &AggregationPolicy,
    topology: Option<&Topology>,
    runtime: &mut Runtime,
) -> Judged {
    let avail: Vec<bool> = profiles.iter().map(|p| p.available).collect();
    let mut judged = Judged::default();
    judged
        .dropped
        .extend((0..profiles.len() as u32).filter(|&d| !avail[d as usize]));
    let mut exhausted = Vec::new();
    if let Some(fstate) = faults {
        if let Some(topo) = topology {
            // Aggregators inside an outage window re-home their shards to
            // the deterministic cyclic successor for the whole round —
            // ledger routing and tier timing alike.
            let outaged = fstate.outaged_aggregators(topo.num_aggregators());
            let rehome = (!outaged.is_empty()).then(|| topo.failover_map(&outaged));
            if let Some(map) = &rehome {
                let served = map
                    .iter()
                    .enumerate()
                    .filter(|&(k, &t)| t as usize != k)
                    .count();
                fstate.note_failovers(served as u64);
            }
            runtime.set_failover(rehome);
        }
        let plan = fstate.compile_round(profiles);
        judged.dropped.extend(plan.crashed_devices(&avail));
        exhausted = plan.exhausted_uploads(&avail);
        judged.plan = Some(plan);
    }
    let late = probe.map_or_else(Vec::new, |p| {
        p.verdicts(policy, profiles, judged.plan.as_ref(), topology)
    });
    judged.late = late.iter().map(|&(d, _)| d).collect();
    if carry_decay(policy).is_some() {
        judged.carried = late;
    } else {
        judged.dropped.extend(&judged.late);
    }
    judged.carried.extend(exhausted.iter().map(|&d| (d, 1)));
    judged
}

impl LateProbe {
    fn new(template: Vec<DeviceWork>) -> Self {
        Self {
            template,
            fleet: None,
            verdicts: Vec::new(),
        }
    }

    /// The `(device, staleness)` pairs `policy` cuts from this round.
    /// Decisions happen at event granularity: the policy's arrival-time
    /// handlers subscribe to the scheduled event stream and judge each
    /// update as it lands (hierarchical mode routes events to per-shard
    /// handlers, each cutting against its own local median).
    fn verdicts(
        &mut self,
        policy: &AggregationPolicy,
        profiles: &[DeviceProfile],
        plan: Option<&FaultPlan>,
        topology: Option<&Topology>,
    ) -> Vec<(u32, u32)> {
        // A fault plan changes every round even on a frozen fleet, so the
        // memo only holds on fault-free rounds.
        if plan.is_some() || self.fleet.as_deref() != Some(profiles) {
            let schedule = EventDrivenRuntime::new_with_faults(profiles, &self.template, plan);
            self.verdicts = match topology {
                Some(topo) => {
                    let mut shards = ShardRoundPolicies::new(policy, &schedule, topo);
                    schedule.run(|t, ev| shards.on_event(t, ev));
                    shards.verdicts()
                }
                None => {
                    let mut round = RoundPolicy::new(policy, &schedule);
                    schedule.run(|t, ev| round.on_event(t, ev));
                    round.verdicts()
                }
            };
            self.fleet = Some(profiles.to_vec());
        }
        self.verdicts.clone()
    }
}

/// Forward pass over the batched forest followed by the POOL layer
/// (Eq. 31): the weighted mean of the leaf embeddings per global vertex,
/// gathered through `pool` — always a [`BatchedTrees::weighted_pool`] view
/// of the round's per-device weights, which for all-ones weights is the
/// batch's own arrays. With a topology the POOL runs tier by tier
/// ([`tiered_pool`]); flat mode keeps the seed op sequence — and therefore
/// its bitstream — untouched.
#[allow(clippy::too_many_arguments)]
fn forward_pooled<'a>(
    tape: &mut Tape<'a>,
    store: &ParamStore,
    encoder: &GnnEncoder,
    batch: &'a BatchedTrees,
    training: bool,
    rng: &mut Xoshiro256pp,
    pool: &PoolArrays,
    topo: Option<&Topology>,
) -> VarId {
    let x = tape.constant_ref(&batch.features);
    let h_tree = encoder.forward(tape, store, x, &batch.mg, training, rng);
    if let Some(topo) = topo {
        if let Some(h) = tiered_pool(tape, h_tree, batch.num_vertices, pool, topo) {
            return h;
        }
    }
    let mut leaves = tape.gather_rows(h_tree, pool.leaves.clone());
    // Fractional staleness weights insert one extra per-leaf scale between
    // gather and scatter; uniform pools skip it, keeping the default op
    // sequence — and therefore its float results — untouched.
    if let Some(w) = &pool.leaf_weights {
        leaves = tape.scale_rows(leaves, w.clone());
    }
    let summed = tape.scatter_add_rows(leaves, pool.vertices.clone(), batch.num_vertices);
    tape.scale_rows(summed, pool.coeff.clone())
}

/// The hierarchical POOL: each aggregator scatter-adds its own members'
/// (optionally staleness-scaled) leaf rows into a local partial, the
/// server sums the K partials, and the per-vertex mean coefficients
/// normalize once at the top — Eq. 31 evaluated tier by tier. The shard
/// slices come straight off the pool arrays: trees are laid out in device
/// order, so an aggregator's leaves are one contiguous run of `owners`.
/// Returns `None` when no shard holds a surviving leaf; the caller's flat
/// sequence then pools the empty arrays to zero exactly as before.
fn tiered_pool(
    tape: &mut Tape<'_>,
    h_tree: VarId,
    num_vertices: usize,
    pool: &PoolArrays,
    topo: &Topology,
) -> Option<VarId> {
    let mut server_sum: Option<VarId> = None;
    let mut lo = 0usize;
    for (_, members) in topo.ranges() {
        let hi = lo + pool.owners[lo..].partition_point(|&o| o < members.end);
        if lo == hi {
            continue;
        }
        let mut leaves = tape.gather_rows(h_tree, Rc::new(pool.leaves[lo..hi].to_vec()));
        if let Some(w) = &pool.leaf_weights {
            leaves = tape.scale_rows(leaves, Rc::new(w[lo..hi].to_vec()));
        }
        let partial = tape.scatter_add_rows(
            leaves,
            Rc::new(pool.vertices[lo..hi].to_vec()),
            num_vertices,
        );
        server_sum = Some(match server_sum {
            Some(acc) => tape.add(acc, partial),
            None => partial,
        });
        lo = hi;
    }
    server_sum.map(|s| tape.scale_rows(s, pool.coeff.clone()))
}

/// Evaluation on the validation or test split (no dropout), recorded on
/// the (emptied) `tape`.
#[allow(clippy::too_many_arguments)]
fn evaluate<'a>(
    tape: &mut Tape<'a>,
    store: &ParamStore,
    encoder: &GnnEncoder,
    decoder: Option<&LinearDecoder>,
    batch: &'a BatchedTrees,
    ds: &Dataset,
    cfg: &LumosConfig,
    node_split: Option<&NodeSplit>,
    edge_split: Option<&EdgeSplit>,
    test: bool,
    rng: &mut Xoshiro256pp,
) -> f64 {
    // Evaluation is offline: every device's embedding participates, and
    // the pooling runs server-side — no aggregation tier on the wire.
    let full_pool = batch.masked_pool(&[]);
    let h = forward_pooled(tape, store, encoder, batch, false, rng, &full_pool, None);
    match cfg.task {
        TaskKind::Supervised => {
            let split = node_split.expect("supervised split");
            let mask = if test {
                &split.test_mask
            } else {
                &split.val_mask
            };
            let dec = decoder.expect("supervised head");
            let logits = dec.forward(tape, store, h);
            accuracy_masked(tape.value(logits), &ds.labels, mask)
        }
        TaskKind::Unsupervised => {
            let split = edge_split.expect("unsupervised split");
            let (pos, neg) = if test {
                (&split.test_edges, &split.test_negatives)
            } else {
                (&split.val_edges, &split.val_negatives)
            };
            let score = |pairs: &[(u32, u32)], tape: &mut Tape<'_>| -> Vec<f32> {
                let src: Rc<Vec<u32>> = Rc::new(pairs.iter().map(|&(u, _)| u).collect());
                let dst: Rc<Vec<u32>> = Rc::new(pairs.iter().map(|&(_, v)| v).collect());
                let z = link_logits(tape, h, src, dst);
                tape.value(z).data().to_vec()
            };
            let pos_scores = score(pos, tape);
            let neg_scores = score(neg, tape);
            roc_auc(&pos_scores, &neg_scores)
        }
    }
}

/// Records the inter-device messages one training epoch incurs (§VI-B/C):
///
/// * each device sends the updated embedding of every neighbor leaf back to
///   that leaf's owner (one message per retained branch);
/// * each owner's pooled embedding requires no further messages (the leaves
///   arrived above);
/// * unsupervised training additionally fetches the embeddings of retained
///   neighbors and of sampled negatives (Eq. 33);
/// * finally every device ships its loss/gradient contribution to the
///   aggregation point.
///
/// Devices in `parked` form an update that arrives in a later round (cut
/// by a carrying policy, or out of retries): none of their outbound
/// messages are accounted here (messages *to* them still are — their
/// senders paid either way); `deferred` collects those silenced sends so
/// the runtime can re-inject them in the round where they actually arrive.
/// Devices in `dropped` (churned out, crashed, or cut by the deadline) send
/// nothing, now or later.
///
/// With a topology the final aggregation tier routes through it: each
/// surviving device uploads to its own aggregator (same cost to the
/// device as a server upload) and every aggregator forwards exactly one
/// pooled partial to the server — per-round server traffic is
/// O(aggregators), not O(devices). A deferred upload still
/// targets the server directly: a stale partial arrives after its shard's
/// round already closed, so it skips the aggregator tier on re-injection.
#[allow(clippy::too_many_arguments)]
fn record_epoch_messages(
    trees: &[DeviceTree],
    cfg: &LumosConfig,
    net: &mut SimNetwork,
    edge_split: Option<&EdgeSplit>,
    parked: &[(u32, u32)],
    dropped: &[u32],
    topo: Option<&Topology>,
) -> Vec<(u32, u32, u64)> {
    let mut deferred = Vec::new();
    let mut silenced = vec![false; trees.len()];
    let mut is_parked = vec![false; trees.len()];
    for &d in dropped {
        silenced[d as usize] = true;
    }
    for &(d, _) in parked {
        silenced[d as usize] = true;
        is_parked[d as usize] = true;
    }
    // Silenced senders contribute nothing to the live ledger; the parked
    // subset (their update still arrives, later) is captured in `deferred`.
    let mut route = |net: &mut SimNetwork, from: u32, to: u32| {
        if silenced[from as usize] {
            if is_parked[from as usize] {
                deferred.push((from, to, EMBEDDING_BYTES));
            }
        } else if to == SimNetwork::SERVER {
            net.send_to_server(from, EMBEDDING_BYTES);
        } else {
            net.send(from, to, EMBEDDING_BYTES);
        }
    };
    for tree in trees {
        let u = tree.center;
        for &v in &tree.neighbors {
            // Leaf embedding u → owner v after the l-layer update.
            route(net, u, v);
        }
    }
    net.round();
    if cfg.task == TaskKind::Unsupervised {
        // Positive fetches: each training edge's embedding crosses once;
        // negatives are requested per sampled pair.
        if let Some(split) = edge_split {
            for &(u, v) in &split.train_edges {
                route(net, v, u);
            }
            let neg_count = split.train_edges.len() * cfg.negatives_per_positive;
            for i in 0..neg_count {
                // Negative-sample embedding transfers (uniformly attributed).
                let from = (i % trees.len()) as u32;
                let to = ((i / 2) % trees.len()) as u32;
                if from == to {
                    // A device already holds its own embedding — a
                    // self-addressed fetch never crosses the wire.
                    continue;
                }
                route(net, from, to);
            }
        }
        net.round();
    }
    // Loss/gradient aggregation: one message per surviving device — to
    // the server directly in flat mode, to the device's own aggregator
    // (then one partial per aggregator up to the server) in hierarchical
    // mode.
    match topo {
        Some(topo) => {
            for v in 0..trees.len() as u32 {
                if silenced[v as usize] {
                    route(net, v, SimNetwork::SERVER);
                } else {
                    net.send_to_aggregator(v, EMBEDDING_BYTES);
                }
            }
            for shard in 0..topo.num_aggregators() as u32 {
                // An outage-covered aggregator ships nothing: its members
                // were re-homed to the successor, whose own (merged)
                // partial is sent above.
                if net.rehome_target(shard) != shard {
                    continue;
                }
                net.send_aggregator_to_server(shard, EMBEDDING_BYTES);
            }
        }
        None => {
            for v in 0..trees.len() as u32 {
                route(net, v, SimNetwork::SERVER);
            }
        }
    }
    net.round();
    deferred
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_data::Scale;
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
        let cfg = LumosConfig::new(lumos_gnn::Backbone::Gcn, TaskKind::Unsupervised);
        let mut net = SimNetwork::new(n);
        let snap = net.snapshot();
        record_epoch_messages(&trees, &cfg, &mut net, Some(&split), &[], &[], None);
        let edges = net.sent_matrix_since(&snap);
        assert!(!edges.is_empty());
        for ((from, to), _) in edges {
            assert_ne!(from, to, "self-addressed message on the ledger");
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
        // Late work is banked for a later round, never discarded.
        assert!(bs.buffered_updates > 0, "tail must breach the deadline");
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
