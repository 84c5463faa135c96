//! The untraced end-to-end path: the timing harness every workload runs
//! under, and the three `run_lumos` workloads.
//!
//! The `run_lumos` workloads touch only `DatasetConfig` / `Dataset::generate`,
//! the `LumosConfig` builders plus its `security` field, `run_lumos`, and
//! public `RunReport` fields, so trainer refactors can land without editing
//! this file. Everything wider lives in `fleet.rs` and `replay.rs`.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use lumos::balance::{CompareBackend, SecurityMode};
use lumos::common::timer::{time_it, Stopwatch};
use lumos::core::{
    run_lumos, AggregationPolicy, BalanceObjective, LumosConfig, RunReport, TaskKind,
    TopologyConfig,
};
use lumos::data::{Dataset, DatasetConfig, Scale};
use lumos::gnn::Backbone;
use lumos::sim::{FaultSpec, Scenario};

use crate::spec::{Sizes, Workload, DEFAULT_SEED};

/// Share of `--seconds` spent on full ops; the rest times `epochs = 0` ops.
const RUN_SHARE: f64 = 0.8;

/// What one run of the harness measured.
pub struct Timed<I, R> {
    /// Wall of each set-up: input generation, configuration, one warm-up op.
    pub setup_s: Vec<f64>,
    /// Wall of each timed op.
    pub run_s: Vec<f64>,
    /// Wall of each timed zero-epoch (zero-round) op.
    pub pretrain_s: Vec<f64>,
    /// Inputs of the last set-up, and the first op's result on them.
    pub input: I,
    pub first: Option<R>,
    pub attempted: u64,
    /// One line per failed op or rejected check.
    pub failures: Vec<String>,
}

/// Runs an op, turning a panic into a failure line.
fn guarded<R>(what: &str, op: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(op)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        format!("{what} panicked: {msg}")
    })
}

/// The closed loop every workload is timed in: `sizes.setups` set-ups (each
/// generating the inputs afresh and running one untimed-as-op warm-up),
/// then full ops back to back for [`RUN_SHARE`] of `seconds`, then
/// zero-epoch ops for the remainder. `same` compares each result with the
/// first of its kind — same seed, same report is the repo's standing
/// contract — and an op that panics or differs counts as failed.
pub fn measure<I, R>(
    sizes: &Sizes,
    seconds: f64,
    setup: impl Fn() -> I,
    op: impl Fn(&I) -> R,
    pretrain: impl Fn(&I) -> R,
    same: impl Fn(&R, &R) -> Result<(), String>,
) -> Timed<I, R> {
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut first: Option<R> = None;
    let mut first_pretrain: Option<R> = None;
    let mut judge = |kind: &str, slot: &mut Option<R>, result: Result<R, String>| {
        attempted += 1;
        match (result, slot.as_ref()) {
            (Err(e), _) => failures.push(e),
            (Ok(r), Some(reference)) => {
                if let Err(e) = same(reference, &r) {
                    failures.push(format!("{kind} op differs from the first: {e}"));
                }
            }
            (Ok(r), None) => *slot = Some(r),
        }
    };

    let mut setup_s = Vec::new();
    let mut input = None;
    for _ in 0..sizes.setups.max(1) {
        let ((fresh, warm), secs) = time_it(|| {
            let fresh = black_box(setup());
            let warm = guarded("warm-up", || black_box(op(&fresh)));
            (fresh, warm)
        });
        setup_s.push(secs);
        judge("warm-up", &mut first, warm);
        input = Some(fresh);
    }
    let input = input.expect("at least one set-up");

    let clock = Stopwatch::started();
    let mut run_s = Vec::new();
    while run_s.len() < sizes.min_reps || clock.secs() < RUN_SHARE * seconds {
        let (result, secs) = time_it(|| guarded("op", || black_box(op(black_box(&input)))));
        run_s.push(secs);
        judge("timed", &mut first, result);
    }
    let mut pretrain_s = Vec::new();
    while pretrain_s.len() < sizes.min_pretrain_reps || clock.secs() < seconds {
        let (result, secs) =
            time_it(|| guarded("zero-epoch op", || black_box(pretrain(black_box(&input)))));
        pretrain_s.push(secs);
        judge("zero-epoch", &mut first_pretrain, result);
    }

    Timed {
        setup_s,
        run_s,
        pretrain_s,
        input,
        first,
        attempted,
        failures,
    }
}

/// Inputs of a `run_lumos` workload.
pub struct LumosInputs {
    pub ds: Dataset,
    pub cfg: LumosConfig,
    /// `cfg` with `epochs = 0`: everything before the first epoch plus one
    /// test evaluation.
    pub cfg_pretrain: LumosConfig,
}

/// Candidate dataset seeds tried per generation.
const SIZE_CANDIDATES: u64 = 12;

/// The Facebook-like dataset for `seed`. The seed is XORed into
/// `DatasetConfig::seed`; the program sees only the generated dataset.
///
/// The generator draws heavy-tailed expected degrees, so the edge count —
/// and every timing with it — swings by ±5% between seeds. A workload is
/// stated at a size, so of [`SIZE_CANDIDATES`] seeds derived from `seed` the
/// graph closest to `target_edges` is taken: seeds vary the wiring,
/// features, splits, MCMC walk and fleet, not how much work there is.
pub fn generate(scale: Scale, target_edges: usize, seed: u64) -> Dataset {
    (0..SIZE_CANDIDATES)
        .map(|k| {
            let mut dc = DatasetConfig::facebook_like(scale);
            dc.seed ^= seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Dataset::generate(&dc)
        })
        .min_by_key(|ds| ds.graph.num_edges().abs_diff(target_edges))
        .expect("at least one candidate")
}

/// The workload's `LumosConfig`.
///
/// # Panics
/// Panics on `Workload::FleetRounds`, which trains no model.
pub fn config(workload: Workload, sizes: &Sizes, seed: u64) -> LumosConfig {
    let base = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised).with_seed(seed);
    match workload {
        Workload::TrainDefault => base
            .with_epochs(sizes.epochs)
            .with_mcmc_iterations(sizes.mcmc),
        Workload::TrainLoaded => base
            .with_epochs(sizes.epochs)
            .with_mcmc_iterations(sizes.mcmc)
            .with_scenario(Scenario::StragglerTail)
            .with_balance_objective(BalanceObjective::VirtualSecs)
            .with_topology(TopologyConfig::Hierarchical { aggregators: 8 })
            .with_aggregation_policy(AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            })
            .with_faults(FaultSpec::message_loss(0.05)),
        Workload::SecureConstructor => {
            let mut cfg = base
                .with_epochs(1)
                .with_mcmc_iterations(sizes.secure_mcmc)
                .with_compare_backend(CompareBackend::Bitsliced);
            cfg.security = SecurityMode::Simulated;
            cfg
        }
        Workload::FleetRounds => panic!("fleet_rounds has no LumosConfig"),
    }
}

pub fn lumos_inputs(workload: Workload, sizes: &Sizes, seed: u64) -> LumosInputs {
    let cfg = config(workload, sizes, seed);
    LumosInputs {
        ds: generate(sizes.scale, sizes.target_edges, seed),
        cfg_pretrain: cfg.clone().with_epochs(0),
        cfg,
    }
}

/// Every seed-determined field of a report, rendered so that equal strings
/// mean bit-equal fields (`{:?}` prints floats shortest-round-trip). The
/// wall-clock fields (`avg_epoch_secs`, `constructor.wall_secs`) stay out.
pub fn fingerprint(r: &RunReport) -> String {
    let c = &r.constructor;
    format!(
        "{:?}",
        (
            (r.test_metric, r.best_val_metric, &r.history),
            (
                r.avg_messages_per_device_per_epoch,
                r.avg_epoch_makespan,
                r.init_messages
            ),
            (
                &c.workloads,
                c.max_workload,
                c.max_weighted_workload,
                c.untrimmed_max
            ),
            (
                c.secure_comm,
                c.comparisons,
                c.server_messages,
                &c.mcmc_trace
            ),
            &r.sim,
        )
    )
}

pub fn same_report(a: &RunReport, b: &RunReport) -> Result<(), String> {
    let (fa, fb) = (fingerprint(a), fingerprint(b));
    if fa == fb {
        return Ok(());
    }
    let at = fa
        .bytes()
        .zip(fb.bytes())
        .take_while(|(x, y)| x == y)
        .count();
    let lo = at.saturating_sub(40);
    Err(format!(
        "fingerprints part at byte {at}: …{} vs …{}",
        &fa[lo..fa.len().min(at + 40)],
        &fb[lo..fb.len().min(at + 40)]
    ))
}

/// `test_metric` floors at the default seed and full size. Ten epochs reach
/// 0.323 / 0.477 there (ISSUE 11's 0.60 / 0.45 belonged to 40 epochs);
/// chance is 0.25.
fn accuracy_floor(workload: Workload) -> Option<f64> {
    match workload {
        Workload::TrainDefault => Some(0.29),
        Workload::TrainLoaded => Some(0.40),
        _ => None,
    }
}

/// The workload-level checks on a `run_lumos` report; one line per
/// rejection.
pub fn check_report(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    inputs: &LumosInputs,
    r: &RunReport,
) -> Vec<String> {
    let mut bad = Vec::new();
    let mut require = |ok: bool, msg: String| {
        if !ok {
            bad.push(msg);
        }
    };
    if let (Some(first), Some(last)) = (r.history.first(), r.history.last()) {
        if r.history.len() > 1 {
            require(
                last.loss < first.loss,
                format!(
                    "training loss did not fall: {} -> {}",
                    first.loss, last.loss
                ),
            );
        }
    } else {
        require(false, "report has no history".into());
    }
    require(
        r.test_metric.is_finite() && r.avg_messages_per_device_per_epoch > 0.0,
        format!(
            "degenerate report: test_metric {} msgs {}",
            r.test_metric, r.avg_messages_per_device_per_epoch
        ),
    );
    if let Some(floor) = accuracy_floor(workload) {
        if seed == DEFAULT_SEED && !sizes.quick {
            require(
                r.test_metric >= floor,
                format!("test_metric {} below {floor}", r.test_metric),
            );
        }
    }
    match workload {
        Workload::TrainLoaded => match &r.sim {
            Some(sim) => {
                require(sim.buffered_updates > 0, "no update was buffered".into());
                require(sim.retries > 0, "no lost message was retried".into());
                require(
                    sim.wasted_updates == 0,
                    format!("{} updates wasted under Buffered", sim.wasted_updates),
                );
            }
            None => require(false, "loaded run carries no SimSummary".into()),
        },
        Workload::SecureConstructor => {
            let c = &r.constructor;
            require(
                c.max_workload < c.untrimmed_max,
                format!(
                    "trimming did not lower the max workload: {} vs {}",
                    c.max_workload, c.untrimmed_max
                ),
            );
            require(
                c.secure_comm.messages > 0,
                "simulated circuits sent nothing".into(),
            );
            // The simulated circuits must decide exactly as the clear-text
            // cost model does.
            let mut clear = inputs.cfg_pretrain.clone();
            clear.security = SecurityMode::CostModel;
            match guarded("cost-model reference", || run_lumos(&inputs.ds, &clear)) {
                Ok(reference) => require(
                    reference.constructor.workloads == c.workloads,
                    "bit-sliced assignment differs from the cost-model run's".into(),
                ),
                Err(e) => require(false, e),
            }
        }
        _ => {}
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_counts_ops_failures_and_keeps_the_first_result() {
        let sizes = Sizes::quick();
        let calls = std::cell::Cell::new(0u32);
        let timed = measure(
            &sizes,
            0.0,
            || 7u32,
            |&i| {
                calls.set(calls.get() + 1);
                // The third op (second timed one) misbehaves.
                match calls.get() {
                    3 => i + 1,
                    _ => i,
                }
            },
            |&i| i * 2,
            |a, b| {
                if a == b {
                    Ok(())
                } else {
                    Err(format!("{a} != {b}"))
                }
            },
        );
        // 1 warm-up + 2 timed + 2 zero-epoch ops at quick size.
        assert_eq!(timed.attempted, 5);
        assert_eq!(timed.setup_s.len(), 1);
        assert_eq!(timed.run_s.len(), 2);
        assert_eq!(timed.pretrain_s.len(), 2);
        assert_eq!(timed.first, Some(7));
        assert_eq!(timed.input, 7);
        assert_eq!(timed.failures.len(), 1, "{:?}", timed.failures);
        assert!(timed.failures[0].contains("7 != 8"));
    }

    #[test]
    fn a_panicking_op_is_a_failed_op_not_a_crash() {
        let timed = measure(
            &Sizes::quick(),
            0.0,
            || (),
            |_| -> u32 { panic!("boom") },
            |_| 1u32,
            |_, _| Ok(()),
        );
        assert_eq!(timed.attempted, 5);
        assert_eq!(timed.failures.len(), 3);
        assert!(timed.failures.iter().all(|f| f.contains("boom")));
        assert!(timed.first.is_none());
    }

    #[test]
    fn generation_is_seeded_and_steered_to_the_target_size() {
        let sizes = Sizes::quick();
        let make = |seed| generate(sizes.scale, sizes.target_edges, seed);
        let (a, b, c) = (make(5), make(5), make(6));
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.features, b.features);
        assert_ne!(a.features, c.features, "another seed, another dataset");
        for ds in [&a, &c] {
            let off = ds.graph.num_edges().abs_diff(sizes.target_edges) as f64;
            assert!(
                off / (sizes.target_edges as f64) < 0.03,
                "{} edges vs target {}",
                ds.graph.num_edges(),
                sizes.target_edges
            );
        }
    }

    #[test]
    fn same_seed_same_fingerprint_and_another_seed_another() {
        let sizes = Sizes::quick();
        let run = |seed| {
            let inputs = lumos_inputs(Workload::TrainDefault, &sizes, seed);
            run_lumos(&inputs.ds, &inputs.cfg)
        };
        let (a, b, c) = (run(11), run(11), run(12));
        assert!(same_report(&a, &b).is_ok());
        assert!(same_report(&a, &c).is_err());
    }
}
