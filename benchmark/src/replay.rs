//! The traced run: the per-layer numbers, taken by replaying the pipeline
//! from outside — timing calls into each crate's public functions — because
//! the program itself carries no spans yet (ROADMAP item 1).
//!
//! Every workload's traced run has the same three sections, sized by the
//! workload, so every per-layer metric is a measurement on every workload:
//!
//! * the **pipeline** of `run_lumos` (split → constructor → trees → LDP
//!   exchange → batch → per epoch forward / backward / optimiser / frees →
//!   evaluation) on the workload's dataset and config — on `fleet_rounds`,
//!   which trains no model, on a smoke-scale control dataset;
//! * the **round** substrate (`fleet::run` plus one sharded round) at the
//!   workload's device count — 100,000 on `fleet_rounds`, the dataset's
//!   1,200 elsewhere, where it is the off-path control;
//! * the **kernels** (secure compare both backends, matmul, gather,
//!   scatter) at the shapes the pipeline just produced.
//!
//! `trace.coverage` and `trace.overhead_share` refer to the section the
//! workload's op actually runs.
//!
//! API this file pins beyond the end-to-end path is listed in README.md.
//! It must not call `Runtime::end_epoch_*`, `late_with_staleness` or
//! `with_lockstep_runtime`: ROADMAP item 2 deletes them.

use std::cmp::Ordering;
use std::hint::black_box;
use std::rc::Rc;

use lumos::balance::{
    greedy_init_weighted, make_oracle_backend, mcmc_balance, CompareBackend, McmcConfig,
    SecurityMode,
};
use lumos::common::rng::Xoshiro256pp;
use lumos::common::timer::{time_it, Stopwatch};
use lumos::core::batch::PoolArrays;
use lumos::core::{
    build_batched, construct_assignment, construct_assignment_sharded, exchange_features,
    run_lumos, AggregationPolicy, BalanceObjective, BatchedTrees, DeviceTree, LocalGraphKind,
    LumosConfig, TaskKind, Topology,
};
use lumos::data::{Dataset, NodeSplit, Scale};
use lumos::fed::{ledger_work, CostModel, Runtime, SimNetwork};
use lumos::gnn::{accuracy_masked, cross_entropy_masked, EncoderConfig, GnnEncoder, LinearDecoder};
use lumos::sim::{
    DeviceProfile, EventDrivenRuntime, FaultSpec, FaultState, RecoveryPolicy, Scenario,
    ScenarioState,
};
use lumos::tensor::{kernels, Adam, ParamStore, Tape, Tensor, VarId};
use lumos::topo::{tier_timing, ShardRoundPolicies};

use crate::e2e;
use crate::fleet::{self, FleetInputs};
use crate::json::Value;
use crate::procfs;
use crate::spec::{Sizes, Workload, PER_LAYER};
use crate::stats::median;
use crate::trace::{NoSpans, Spans, Tracer};
use crate::{Reading, RunResult};

/// Wire size of a pooled embedding, as in the trainer (16 f32 values).
const EMBEDDING_BYTES: u64 = 64;
/// Share of `--seconds` after which no further replay is started.
const REPLAY_SHARE: f64 = 0.6;
/// Untraced reference ops timed per section.
const REFERENCE_OPS: usize = 2;
/// The pipeline section of `fleet_rounds`, which trains no model: a
/// smoke-scale control (scale, target edges, epochs).
const CONTROL: (Scale, usize, usize) = (Scale::Smoke, 1_500, 3);

/// What a pipeline replay hands on: the facts the checks need and the
/// batch whose shapes the kernel section reuses.
struct Replayed {
    op_id: u32,
    test_metric: f64,
    first_loss: f64,
    last_loss: f64,
    batch: BatchedTrees,
    node_costs: Option<Vec<u64>>,
}

/// Forward pass + POOL + head (class logits), as `run_lumos` composes them.
/// Hierarchical runs pool tier by tier over the shard slices.
#[allow(clippy::too_many_arguments)]
fn forward_logits(
    tape: &mut Tape,
    features: Tensor,
    store: &ParamStore,
    encoder: &GnnEncoder,
    decoder: &LinearDecoder,
    batch: &BatchedTrees,
    pool: &PoolArrays,
    topo: Option<&Topology>,
    training: bool,
    rng: &mut Xoshiro256pp,
) -> VarId {
    let x = tape.constant(features);
    let h_tree = encoder.forward(tape, store, x, &batch.mg, training, rng);
    let pool_slice = |tape: &mut Tape, lo: usize, hi: usize, whole: bool| {
        let pick = |v: &Rc<Vec<u32>>| {
            if whole {
                v.clone()
            } else {
                Rc::new(v[lo..hi].to_vec())
            }
        };
        let mut leaves = tape.gather_rows(h_tree, pick(&pool.leaves));
        if let Some(w) = &pool.leaf_weights {
            let w = if whole {
                w.clone()
            } else {
                Rc::new(w[lo..hi].to_vec())
            };
            leaves = tape.scale_rows(leaves, w);
        }
        tape.scatter_add_rows(leaves, pick(&pool.vertices), batch.num_vertices)
    };
    let mut summed: Option<VarId> = None;
    if let Some(topo) = topo {
        let mut lo = 0usize;
        for (_, members) in topo.ranges() {
            let hi = lo + pool.owners[lo..].partition_point(|&o| o < members.end);
            if lo < hi {
                let partial = pool_slice(tape, lo, hi, false);
                summed = Some(match summed {
                    Some(acc) => tape.add(acc, partial),
                    None => partial,
                });
            }
            lo = hi;
        }
    }
    let summed = match summed {
        Some(s) => s,
        None => pool_slice(tape, 0, pool.leaves.len(), true),
    };
    let h = tape.scale_rows(summed, pool.coeff.clone());
    decoder.forward(tape, store, h)
}

/// One replayed `run_lumos` op (supervised task), every layer call a span
/// under one `op` root. On a config without a scenario the replay makes the
/// program's random draws in the program's order, so its test accuracy
/// equals `run_lumos`'s — the check that the replay still is the pipeline.
fn replay_pipeline(ds: &Dataset, cfg: &LumosConfig, t: &mut Tracer) -> Replayed {
    assert_eq!(
        cfg.task,
        TaskKind::Supervised,
        "the replay covers node classification"
    );
    let op_id = t.next_op();
    t.span("op", |t| {
        let n = ds.num_nodes();
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        let (split, train_graph) = t.span("data.split", |_| {
            (NodeSplit::uniform(n, &mut rng), ds.graph.clone())
        });

        let enc_cfg = EncoderConfig::paper(cfg.backbone, ds.feature_dim);
        let (mut runtime, node_costs, topology) = t.span("topo.fleet_init", |_| {
            let mut runtime = Runtime::new(n, CostModel::default());
            if let Some(s) = cfg.scenario {
                runtime.set_profiles(ScenarioState::new(s, n, cfg.seed).profiles().to_vec());
            }
            let node_costs = match cfg.balance_objective {
                BalanceObjective::TreeNodes => None,
                BalanceObjective::VirtualSecs => {
                    runtime.node_costs_micros(enc_cfg.num_layers, EMBEDDING_BYTES)
                }
            };
            let topology =
                cfg.topology
                    .effective(n)
                    .aggregators()
                    .map(|k| match node_costs.as_deref() {
                        Some(costs) => Topology::cost_balanced(costs, k),
                        None => Topology::seeded(n, k, cfg.seed),
                    });
            (runtime, node_costs, topology)
        });

        let (assignment, constructor) = t.span("core.constructor", |_| match &topology {
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
        });
        t.count("balance.comparisons", constructor.comparisons as f64);
        t.count("balance.ot_msgs", constructor.secure_comm.messages as f64);
        t.count("balance.ot_bytes", constructor.secure_comm.bytes as f64);
        t.count("balance.ot_rounds", constructor.secure_comm.rounds as f64);

        let trees: Vec<DeviceTree> = t.span("core.tree_build", |_| {
            (0..n as u32)
                .map(|v| {
                    DeviceTree::build(
                        LocalGraphKind::VirtualNodeTree,
                        v,
                        assignment.kept(v).to_vec(),
                    )
                })
                .collect()
        });
        let exchange = t.span("core.exchange", |_| {
            exchange_features(
                &ds.features,
                ds.feature_dim,
                &trees,
                cfg.epsilon,
                &mut rng,
                &mut runtime.network,
            )
        });
        t.count("core.exchange_msgs", exchange.messages as f64);
        let batch = t.span("core.batch_build", |_| {
            build_batched(&trees, &ds.features, ds.feature_dim, &exchange)
        });
        t.count("core.batch_nodes", batch.total_nodes() as f64);

        let (mut store, encoder, decoder, mut opt) = t.span("gnn.init", |_| {
            let mut store = ParamStore::new();
            let encoder = GnnEncoder::new(&mut store, &enc_cfg, &mut rng);
            let decoder = LinearDecoder::new(
                &mut store,
                "head",
                encoder.out_dim(),
                ds.num_classes,
                &mut rng,
            );
            (store, encoder, decoder, Adam::new(cfg.lr))
        });
        let targets = Rc::new(ds.labels.clone());
        let train_mask: Rc<Vec<f32>> = Rc::new(
            split
                .train_mask
                .iter()
                .map(|&b| if b { 1.0 } else { 0.0 })
                .collect(),
        );
        let evaluate =
            |t: &mut Tracer, store: &ParamStore, mask: &[bool], rng: &mut Xoshiro256pp| {
                t.span("gnn.eval", |_| {
                    let mut tape = Tape::new();
                    let pool = batch.masked_pool(&[]);
                    let logits = forward_logits(
                        &mut tape,
                        batch.features.clone(),
                        store,
                        &encoder,
                        &decoder,
                        &batch,
                        &pool,
                        None,
                        false,
                        rng,
                    );
                    accuracy_masked(tape.value(logits), &ds.labels, mask)
                })
            };

        // The loaded run pools through a fresh per-device weight vector
        // most rounds (late devices at 0, buffered arrivals on top); the
        // replay draws a comparable one from a stream of its own so the
        // trainer's stream keeps its order.
        let weighted = cfg.scenario.is_some()
            && (!cfg.faults.is_none()
                || matches!(
                    cfg.aggregation_policy,
                    AggregationPolicy::Buffered { .. } | AggregationPolicy::Async { .. }
                ));
        let mut weight_rng = Xoshiro256pp::seed_from_u64(cfg.seed ^ 0x0B0C_0D0E);
        let (mut first_loss, mut last_loss) = (f64::NAN, f64::NAN);
        for epoch in 0..cfg.epochs {
            let pool = t.span("core.pool_build", |_| {
                if weighted {
                    let weights: Vec<f32> = (0..n)
                        .map(|_| match weight_rng.next_below(20) {
                            0 => 0.0,
                            1 => 1.5,
                            _ => 1.0,
                        })
                        .collect();
                    batch.weighted_pool(&weights)
                } else {
                    batch.masked_pool(&[])
                }
            });
            let features = t.span("tensor.alloc", |_| batch.features.clone());
            let (tape, loss_var) = t.span("gnn.forward", |_| {
                let mut tape = Tape::new();
                let logits = forward_logits(
                    &mut tape,
                    features,
                    &store,
                    &encoder,
                    &decoder,
                    &batch,
                    &pool,
                    topology.as_ref(),
                    true,
                    &mut rng,
                );
                let loss =
                    cross_entropy_masked(&mut tape, logits, targets.clone(), train_mask.clone());
                (tape, loss)
            });
            let loss = f64::from(tape.value(loss_var).item());
            if epoch == 0 {
                first_loss = loss;
            }
            last_loss = loss;
            let grads = t.span("tensor.backward", |_| {
                store.zero_grad();
                let grads = tape.backward(loss_var);
                tape.accumulate_param_grads(&grads, &mut store);
                grads
            });
            t.span("tensor.optim", |_| opt.step(&mut store));
            t.count("tensor.tape_ops", tape.len() as f64);
            t.span("tensor.free", |_| {
                drop(grads);
                drop(tape);
                drop(pool);
            });
            if epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
                black_box(evaluate(t, &store, &split.val_mask, &mut rng));
            }
        }
        let test_metric = evaluate(t, &store, &split.test_mask, &mut rng);
        Replayed {
            op_id,
            test_metric,
            first_loss,
            last_loss,
            batch,
            node_costs,
        }
    })
}

/// One sharded round over the same fleet: the hierarchical use of the
/// `sim` engine (`⌈√n⌉` aggregators, per-shard policies, tier timing).
fn replay_sharded_round(inputs: &FleetInputs, t: &mut Tracer) {
    let n = inputs.devices;
    let topo = Topology::seeded(n, (n as f64).sqrt().ceil() as usize, inputs.seed);
    let state = ScenarioState::new(Scenario::Churn, n, inputs.seed);
    let mut faults = FaultState::new(
        FaultSpec::message_loss(fleet::LOSS_RATE),
        RecoveryPolicy::default(),
        inputs.seed,
    );
    let tree_sizes = vec![fleet::TREE_NODES; n];
    let stats = t.span("topo.shard_run", |_| {
        let mut net = SimNetwork::new_sharded(topo.shard_vector());
        let snap = net.snapshot();
        fleet::write_round(&mut net, state.profiles(), Some(&topo));
        let work = ledger_work(&net, &snap, &tree_sizes, fleet::LAYERS);
        let plan = faults.compile_round(state.profiles());
        let schedule = EventDrivenRuntime::new_with_faults(state.profiles(), &work, Some(&plan));
        let mut shards = ShardRoundPolicies::new(&fleet::POLICY, &schedule, &topo);
        let stats = schedule.run(|at, ev| shards.on_event(at, ev));
        black_box(shards.verdicts());
        stats
    });
    t.span("topo.tier_timing", |_| {
        black_box(tier_timing(
            &stats,
            &topo,
            &DeviceProfile::baseline(),
            fleet::UPDATE_BYTES,
        ))
    });
}

/// Kernel-level numbers at the shapes the pipeline produced. Rates are
/// operation counts and computed bytes over wall time, not hardware
/// counters.
struct Kernels {
    sliced_cmp_ns: f64,
    scalar_cmp_ns: f64,
    sliced_msgs_per_cmp: f64,
    greedy_ms: f64,
    mcmc_iter_us: f64,
    matmul_gflops: f64,
    gather_gbps: f64,
    scatter_gbps: f64,
}

/// Pairs per secure-compare sweep, and their width.
const COMPARE_PAIRS: usize = 4096;
const COMPARE_BITS: u32 = 48;
/// Timed repetitions of each tensor kernel (the median is reported).
const KERNEL_REPS: usize = 9;

fn replay_kernels(
    ds: &Dataset,
    cfg: &LumosConfig,
    replayed: &Replayed,
    seed: u64,
    t: &mut Tracer,
    failures: &mut Vec<String>,
) -> Kernels {
    t.next_op();
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xC0_FFEE);
    let pairs: Vec<(u64, u64)> = (0..COMPARE_PAIRS)
        .map(|_| {
            (
                rng.next_below(1 << COMPARE_BITS),
                rng.next_below(1 << COMPARE_BITS),
            )
        })
        .collect();
    let sweep = |t: &mut Tracer, name: &'static str, backend| {
        let mut oracle = make_oracle_backend(SecurityMode::Simulated, backend, seed);
        let outcomes = t.span(name, |_| {
            oracle.compare_batch(black_box(&pairs), COMPARE_BITS)
        });
        (outcomes, oracle.meter())
    };
    let (sliced, sliced_meter) = sweep(t, "crypto.sliced_compare", CompareBackend::Bitsliced);
    let (scalar, _) = sweep(t, "crypto.scalar_compare", CompareBackend::Scalar);
    if sliced != scalar {
        failures.push("bit-sliced and scalar compare disagree".into());
    }

    // Algorithms 1 and 2 on their own, under the workload's oracle.
    let mut oracle = make_oracle_backend(cfg.security, cfg.compare_backend, cfg.seed);
    let costs = replayed.node_costs.as_deref();
    let init = t.span("balance.greedy", |_| {
        greedy_init_weighted(&ds.graph, costs, oracle.as_mut())
    });
    let mcmc_cfg = McmcConfig {
        iterations: cfg.mcmc_iterations,
        seed: cfg.seed ^ 0x5EED,
    };
    let outcome = t.span("balance.mcmc", |_| {
        mcmc_balance(&ds.graph, init, &mcmc_cfg, oracle.as_mut())
    });
    let iterations = black_box(outcome).stats.iterations.max(1);

    let batch = &replayed.batch;
    let (m, k) = batch.features.dims();
    let hidden = EncoderConfig::paper(cfg.backbone, k).hidden_dim;
    let w = Tensor::glorot(k, hidden, &mut rng);
    let h = Tensor::randn(m, hidden, 1.0, &mut rng);
    let leaves = kernels::gather_rows(&h, &batch.pool_leaves);
    let repeat = |t: &mut Tracer, name: &'static str, f: &dyn Fn() -> Tensor| {
        for _ in 0..KERNEL_REPS {
            t.span(name, |_| black_box(f()));
        }
    };
    repeat(t, "tensor.matmul", &|| {
        black_box(&batch.features).matmul(&w)
    });
    repeat(t, "tensor.gather", &|| {
        kernels::gather_rows(black_box(&h), &batch.pool_leaves)
    });
    repeat(t, "tensor.scatter", &|| {
        kernels::scatter_add_rows(black_box(&leaves), &batch.pool_vertices, batch.num_vertices)
    });
    // One f32 row read and one written per gathered leaf; scatter reads the
    // leaf row and reads and writes the vertex row it adds into.
    let row_bytes = (batch.pool_leaves.len() * hidden * 4) as f64;

    let secs = |name: &str| median(&t.secs_of(name));
    Kernels {
        sliced_cmp_ns: 1e9 * secs("crypto.sliced_compare") / COMPARE_PAIRS as f64,
        scalar_cmp_ns: 1e9 * secs("crypto.scalar_compare") / COMPARE_PAIRS as f64,
        sliced_msgs_per_cmp: sliced_meter.messages as f64 / COMPARE_PAIRS as f64,
        greedy_ms: 1e3 * secs("balance.greedy"),
        mcmc_iter_us: 1e6 * secs("balance.mcmc") / iterations as f64,
        matmul_gflops: (2 * m * k * hidden) as f64 / secs("tensor.matmul") / 1e9,
        gather_gbps: 2.0 * row_bytes / secs("tensor.gather") / 1e9,
        scatter_gbps: 3.0 * row_bytes / secs("tensor.scatter") / 1e9,
    }
}

/// `REFERENCE_OPS` untraced ops: the last result, the median wall, and the
/// CPU seconds (user, sys) per op.
fn reference<R>(op: impl Fn() -> R) -> (R, f64, (f64, f64)) {
    let cpu0 = procfs::cpu_secs();
    let mut last = None;
    let secs: Vec<f64> = (0..REFERENCE_OPS)
        .map(|_| {
            let (r, s) = time_it(|| black_box(op()));
            last = Some(r);
            s
        })
        .collect();
    let cpu1 = procfs::cpu_secs();
    let ops = REFERENCE_OPS as f64;
    (
        last.expect("at least one reference op"),
        median(&secs),
        ((cpu1.0 - cpu0.0) / ops, (cpu1.1 - cpu0.1) / ops),
    )
}

/// Duration and covered share of every `op` root span with the given
/// `op_id`s (medians).
fn op_roots(t: &Tracer, ids: &[u32]) -> (f64, f64) {
    let roots: Vec<usize> = t
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "op" && ids.contains(&s.op_id))
        .map(|(i, _)| i)
        .collect();
    let secs: Vec<f64> = roots.iter().map(|&i| t.spans()[i].secs()).collect();
    let covered: Vec<f64> = roots
        .iter()
        .map(|&i| t.spans()[i].secs() - t.self_secs(i))
        .collect();
    (median(&secs), median(&covered))
}

/// The traced run of one workload: every per-layer metric, and the trace
/// file `out/trace_<workload>.json` beside this package's manifest.
pub fn run_traced(workload: Workload, sizes: &Sizes, seed: u64, seconds: f64) -> RunResult {
    let clock = Stopwatch::started();
    let mut t = Tracer::new();
    let mut failures = Vec::new();
    let on_fleet = workload == Workload::FleetRounds;

    // Section inputs.
    let (scale, target_edges, cfg) = if on_fleet {
        let cfg = e2e::config(Workload::TrainDefault, sizes, seed).with_epochs(CONTROL.2);
        (CONTROL.0, CONTROL.1, cfg)
    } else {
        (
            sizes.scale,
            sizes.target_edges,
            e2e::config(workload, sizes, seed),
        )
    };
    let ds = t.span("data.generate", |_| {
        e2e::generate(scale, target_edges, seed)
    });
    let fleet_inputs = FleetInputs {
        devices: if on_fleet {
            sizes.fleet_devices
        } else {
            ds.num_nodes()
        },
        rounds: sizes.fleet_rounds,
        seed,
    };

    // Untraced references: what the replays are compared with.
    let (reference_report, pipeline_run_s, pipeline_cpu) = reference(|| run_lumos(&ds, &cfg));
    let (fleet_report, fleet_run_s, fleet_cpu) =
        reference(|| fleet::run(&fleet_inputs, fleet_inputs.rounds, &mut NoSpans));
    let (_, pipeline_pretrain_s, _) = reference(|| run_lumos(&ds, &cfg.clone().with_epochs(0)));
    let mut attempted = 3 * REFERENCE_OPS as u64;

    // Traced replays, repeated while the time allows.
    let (mut pipeline_ops, mut fleet_ops) = (Vec::new(), Vec::new());
    let replayed = loop {
        let r = replay_pipeline(&ds, &cfg, &mut t);
        pipeline_ops.push(r.op_id);
        attempted += 1;
        if cfg.scenario.is_none() && r.test_metric != reference_report.test_metric {
            failures.push(format!(
                "replay drifted from run_lumos: test accuracy {} vs {}",
                r.test_metric, reference_report.test_metric
            ));
        }
        // NaN must fail too, hence no plain `>=`.
        if cfg.epochs > 1 && r.last_loss.partial_cmp(&r.first_loss) != Some(Ordering::Less) {
            failures.push(format!(
                "replayed loss did not fall: {} -> {}",
                r.first_loss, r.last_loss
            ));
        }

        let op_id = t.next_op();
        let traced = t.span("op", |t| fleet::run(&fleet_inputs, fleet_inputs.rounds, t));
        fleet_ops.push(op_id);
        attempted += 1;
        if let Err(e) = fleet::same_report(&fleet_report, &traced) {
            failures.push(format!(
                "traced fleet op differs from the untraced one: {e}"
            ));
        }
        if clock.secs() >= REPLAY_SHARE * seconds {
            break r;
        }
    };
    t.next_op();
    replay_sharded_round(&fleet_inputs, &mut t);
    let k = replay_kernels(&ds, &cfg, &replayed, seed, &mut t, &mut failures);

    // Per-epoch / per-round layer times are medians over the replayed
    // epochs / rounds, in milliseconds.
    let ms = |name: &str| 1e3 * median(&t.secs_of(name));
    let count = |name: &str| median(&t.counts_of(name));
    let alloc_ms = ms("tensor.alloc") + ms("tensor.free");
    let epochs = cfg.epochs.max(1) as f64;
    let evals_in_epochs = (0..cfg.epochs)
        .filter(|e| e % cfg.eval_every == 0 || e + 1 == cfg.epochs)
        .count() as f64;
    let epoch_other_ms = 1e3 * (pipeline_run_s - pipeline_pretrain_s) / epochs
        - (ms("core.pool_build")
            + ms("gnn.forward")
            + ms("tensor.backward")
            + ms("tensor.optim")
            + alloc_ms)
        - ms("gnn.eval") * evals_in_epochs / epochs;
    let event_rates: Vec<f64> = t
        .counts_of("sim.events")
        .iter()
        .zip(t.secs_of("sim.event_run"))
        .map(|(events, secs)| events / secs)
        .collect();
    let (on_path_run_s, on_path_cpu, on_path_ops) = if on_fleet {
        (fleet_run_s, fleet_cpu, &fleet_ops)
    } else {
        (pipeline_run_s, pipeline_cpu, &pipeline_ops)
    };
    let (traced_op_s, covered_s) = op_roots(&t, on_path_ops);

    let values: Vec<(&str, f64)> = vec![
        ("data.generate_ms", ms("data.generate")),
        ("core.constructor_ms", ms("core.constructor")),
        ("balance.greedy_ms", k.greedy_ms),
        ("balance.mcmc_iter_us", k.mcmc_iter_us),
        ("balance.comparisons", count("balance.comparisons")),
        ("balance.ot_msgs", count("balance.ot_msgs")),
        ("balance.ot_bytes", count("balance.ot_bytes")),
        ("balance.ot_rounds", count("balance.ot_rounds")),
        ("crypto.sliced_cmp_ns", k.sliced_cmp_ns),
        ("crypto.scalar_cmp_ns", k.scalar_cmp_ns),
        ("crypto.sliced_msgs_per_cmp", k.sliced_msgs_per_cmp),
        ("core.tree_build_ms", ms("core.tree_build")),
        ("core.exchange_ms", ms("core.exchange")),
        ("core.exchange_msgs", count("core.exchange_msgs")),
        ("core.batch_build_ms", ms("core.batch_build")),
        ("core.batch_nodes", count("core.batch_nodes")),
        ("core.pool_build_ms", ms("core.pool_build")),
        ("gnn.forward_ms", ms("gnn.forward")),
        ("tensor.backward_ms", ms("tensor.backward")),
        ("tensor.optim_ms", ms("tensor.optim")),
        ("tensor.alloc_ms", alloc_ms),
        ("tensor.tape_ops", count("tensor.tape_ops")),
        ("tensor.matmul_gflops", k.matmul_gflops),
        ("tensor.gather_gbps", k.gather_gbps),
        ("tensor.scatter_gbps", k.scatter_gbps),
        ("gnn.eval_ms", ms("gnn.eval")),
        ("core.epoch_other_ms", epoch_other_ms),
        ("fed.ledger_write_ms", ms("fed.ledger_write")),
        ("fed.ledger_work_ms", ms("fed.ledger_work")),
        ("fed.ledger_entries", count("fed.ledger_entries")),
        ("sim.fault_plan_ms", ms("sim.fault_plan")),
        ("sim.schedule_build_ms", ms("sim.schedule_build")),
        ("sim.event_run_ms", ms("sim.event_run")),
        ("sim.scenario_advance_ms", ms("sim.scenario_advance")),
        ("sim.events", count("sim.events")),
        ("sim.events_per_s", median(&event_rates)),
        ("sim.late_verdicts", count("sim.late_verdicts")),
        ("topo.shard_run_ms", ms("topo.shard_run")),
        ("topo.tier_timing_ms", ms("topo.tier_timing")),
        ("proc.user_s", on_path_cpu.0),
        ("proc.sys_s", on_path_cpu.1),
        ("trace.coverage", covered_s / on_path_run_s),
        (
            "trace.overhead_share",
            (traced_op_s - on_path_run_s) / on_path_run_s,
        ),
    ];
    let readings = PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, (name, value))| {
            assert_eq!(
                m.name, name,
                "PER_LAYER and the replay list metrics in one order"
            );
            if !value.is_finite() {
                failures.push(format!("{name} is {value}"));
            }
            Reading {
                name: m.name,
                unit: m.unit,
                value,
                note: String::new(),
            }
        })
        .collect();

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace_{}.json", workload.name());
    let doc = Value::obj([
        ("trace", t.to_json(workload.name(), seed)),
        (
            "reference",
            Value::obj([
                ("pipeline_run_s", Value::Num(pipeline_run_s)),
                ("pipeline_pretrain_s", Value::Num(pipeline_pretrain_s)),
                ("fleet_run_s", Value::Num(fleet_run_s)),
            ]),
        ),
    ]);
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.render() + "\n"))
    {
        failures.push(format!("cannot write {path}: {e}"));
    }

    RunResult {
        attempted,
        failures,
        readings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_traced_run_of_every_workload_reports_every_layer() {
        let sizes = Sizes::quick();
        for workload in Workload::ALL {
            let r = run_traced(workload, &sizes, 77, 0.0);
            assert!(
                r.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                r.failures
            );
            assert_eq!(r.readings.len(), PER_LAYER.len());
            let get = |name: &str| r.readings.iter().find(|x| x.name == name).unwrap().value;
            for name in [
                "gnn.forward_ms",
                "tensor.backward_ms",
                "core.constructor_ms",
                "sim.event_run_ms",
                "sim.events",
                "crypto.sliced_cmp_ns",
                "tensor.matmul_gflops",
                "topo.shard_run_ms",
            ] {
                assert!(
                    get(name) > 0.0,
                    "{} {name} = {}",
                    workload.name(),
                    get(name)
                );
            }
            let path = format!(
                "{}/out/trace_{}.json",
                env!("CARGO_MANIFEST_DIR"),
                workload.name()
            );
            let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            let spans = doc
                .get("trace")
                .and_then(|t| t.get("spans"))
                .and_then(Value::as_arr)
                .unwrap();
            assert!(spans.len() > 20);
        }
    }
}
