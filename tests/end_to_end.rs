//! Cross-crate integration tests: the full Lumos pipeline plus baselines,
//! exercised end to end at smoke scale through the `lumos` facade.

use lumos::baselines::{run_centralized, BaselineConfig};
use lumos::core::{run_lumos, run_lumos_measured, LumosConfig, TaskKind};
use lumos::data::{Dataset, Scale};
use lumos::gnn::Backbone;

#[expect(dead_code, reason = "each suite calls the laws it pins")]
mod common;

fn lumos_cfg(backbone: Backbone, task: TaskKind) -> LumosConfig {
    LumosConfig::new(backbone, task)
        .with_epochs(25)
        .with_mcmc_iterations(25)
        .with_seed(99)
}

#[test]
fn gcn_and_gat_both_train_supervised() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    for backbone in [Backbone::Gcn, Backbone::Gat] {
        let report = run_lumos(&ds, &lumos_cfg(backbone, TaskKind::Supervised));
        assert!(
            report.test_metric > 0.3,
            "{}: accuracy {}",
            backbone.name(),
            report.test_metric
        );
        assert_eq!(report.backbone, backbone.name());
        assert_eq!(report.task, "supervised");
        assert!(report.history.iter().all(|h| h.loss.is_finite()));
    }
}

#[test]
fn gat_trains_unsupervised() {
    let ds = Dataset::lastfm_like(Scale::Smoke);
    let report = run_lumos(&ds, &lumos_cfg(Backbone::Gat, TaskKind::Unsupervised));
    assert!(report.test_metric > 0.45, "AUC {}", report.test_metric);
    assert_eq!(report.task, "unsupervised");
}

#[test]
fn constructor_report_is_consistent_with_dataset() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let report = run_lumos(&ds, &lumos_cfg(Backbone::Gcn, TaskKind::Supervised));
    let c = &report.constructor;
    assert_eq!(c.workloads.len(), ds.num_nodes());
    assert_eq!(
        c.max_workload,
        *c.workloads.iter().max().unwrap(),
        "max must match the workload vector"
    );
    assert_eq!(c.untrimmed_max, ds.graph.max_degree());
    assert!(c.max_workload <= c.untrimmed_max);
    // Coverage: total retained branches at least |E| (every edge kept
    // somewhere — Eq. 10's constraint).
    let total: usize = c.workloads.iter().sum();
    assert!(total >= ds.graph.num_edges());
}

#[test]
fn ablations_compose() {
    // Both ablations together: raw ego networks, untrimmed — the weakest
    // variant must still run and produce a valid metric.
    let ds = Dataset::facebook_like(Scale::Smoke);
    let cfg = lumos_cfg(Backbone::Gcn, TaskKind::Supervised)
        .without_virtual_nodes()
        .without_tree_trimming();
    let report = run_lumos(&ds, &cfg);
    assert!((0.0..=1.0).contains(&report.test_metric));
    assert!(!report.constructor.trimmed);
    assert_eq!(report.constructor.comparisons, 0);
}

#[test]
fn epsilon_zero_point_five_still_runs() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let cfg = lumos_cfg(Backbone::Gcn, TaskKind::Supervised).with_epsilon(0.5);
    let report = run_lumos(&ds, &cfg);
    assert!(report.test_metric.is_finite());
}

#[test]
fn centralized_baseline_agrees_across_facade() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let cfg = BaselineConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(40)
        .with_seed(99);
    let a = run_centralized(&ds, &cfg);
    let b = run_centralized(&ds, &cfg);
    assert_eq!(a.test_metric, b.test_metric, "deterministic under seed");
}

#[test]
fn measuring_a_run_changes_nothing_and_times_every_phase_once() {
    let ds = Dataset::lastfm_like(Scale::Smoke);
    for epochs in [2, 0] {
        let cfg = lumos_cfg(Backbone::Gcn, TaskKind::Supervised).with_epochs(epochs);
        let (report, footprint) = run_lumos_measured(&ds, &cfg);
        common::laws::assert_identical(&report, &run_lumos(&ds, &cfg), "measured vs plain");
        let mut names: Vec<&str> = footprint.phase_secs.iter().map(|p| p.0).collect();
        assert!(footprint.phase_secs.iter().all(|p| p.1 >= 0.0));
        names.sort_unstable();
        let phases = names.len();
        names.dedup();
        assert_eq!(names.len(), phases, "a phase is listed once: {names:?}");
        // One definition of seconds per epoch, and no 0 / 0 in it.
        let secs = footprint.secs_per_epoch();
        if epochs == 0 {
            assert_eq!(secs, 0.0);
        } else {
            assert!(secs > 0.0, "{epochs} epochs: {secs} s");
        }
    }
}

#[test]
fn reports_carry_system_identity() {
    let ds = Dataset::lastfm_like(Scale::Smoke);
    let r = run_lumos(&ds, &lumos_cfg(Backbone::Gcn, TaskKind::Supervised));
    assert_eq!(r.system, "lumos");
    assert_eq!(r.dataset, "lastfm");
    assert!(r.avg_epoch_makespan > 0.0);
}
