//! Qualitative assertions encoding the paper's evaluation shapes at smoke
//! scale: who wins, where the savings come from, and what the workload
//! distribution looks like — the invariants Figs. 3–8 show at full scale.

use lumos::balance::{CompareBackend, SecurityMode};
use lumos::baselines::{run_centralized, run_naive_fedgnn, BaselineConfig, NaiveFedParams};
use lumos::core::{construct_assignment, run_lumos, LumosConfig, TaskKind};
use lumos::data::{Dataset, Scale};
use lumos::gnn::Backbone;

#[test]
fn figure3_shape_centralized_over_lumos_over_naive() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let epochs = 60;
    let lumos = run_lumos(
        &ds,
        &LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
            .with_epochs(epochs)
            .with_mcmc_iterations(30),
    );
    let central = run_centralized(
        &ds,
        &BaselineConfig::new(Backbone::Gcn, TaskKind::Supervised).with_epochs(epochs),
    );
    let naive = run_naive_fedgnn(
        &ds,
        &BaselineConfig::new(Backbone::Gcn, TaskKind::Supervised).with_epochs(epochs),
        &NaiveFedParams::default(),
    );
    assert!(
        central.test_metric >= lumos.test_metric,
        "centralized {} must top lumos {}",
        central.test_metric,
        lumos.test_metric
    );
    assert!(
        lumos.test_metric > naive.test_metric + 0.1,
        "lumos {} must clearly beat naive {}",
        lumos.test_metric,
        naive.test_metric
    );
}

#[test]
fn figure7_shape_trimming_cuts_the_tail() {
    for ds in [
        Dataset::facebook_like(Scale::Smoke),
        Dataset::lastfm_like(Scale::Smoke),
    ] {
        let (trimmed, rep) = construct_assignment(
            &ds.graph,
            true,
            40,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            1,
            None,
        );
        trimmed.check_feasible(&ds.graph).unwrap();
        // The paper's Fig. 7 headline: the trimmed maximum is a fraction of
        // the untrimmed one (39 vs >150 on Facebook; 16 vs >100 on LastFM).
        assert!(
            (rep.max_workload as f64) < 0.5 * rep.untrimmed_max as f64,
            "{}: {} vs {}",
            ds.name,
            rep.max_workload,
            rep.untrimmed_max
        );
    }
}

#[test]
fn figure8_shape_trimming_saves_communication_and_time_model() {
    let ds = Dataset::lastfm_like(Scale::Smoke);
    let base = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(6)
        .with_mcmc_iterations(30);
    let trimmed = run_lumos(&ds, &base);
    let untrimmed = run_lumos(&ds, &base.clone().without_tree_trimming());
    let comm_saving = (untrimmed.avg_messages_per_device_per_epoch
        - trimmed.avg_messages_per_device_per_epoch)
        / untrimmed.avg_messages_per_device_per_epoch;
    // The paper reports 27–43% depending on dataset/task; at smoke scale we
    // require a clear double-digit saving.
    assert!(
        comm_saving > 0.10,
        "communication saving too small: {comm_saving}"
    );
    assert!(
        trimmed.avg_epoch_makespan < untrimmed.avg_epoch_makespan,
        "straggler makespan must shrink"
    );
}

#[test]
fn figure5_shape_epsilon_extremes() {
    // ε = 4 must not be clearly worse than ε = 0.5 (monotone trend up to
    // smoke-scale noise).
    let ds = Dataset::facebook_like(Scale::Smoke);
    let run = |eps: f64| {
        run_lumos(
            &ds,
            &LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
                .with_epochs(60)
                .with_mcmc_iterations(30)
                .with_epsilon(eps),
        )
        .test_metric
    };
    let lo = run(0.5);
    let hi = run(4.0);
    assert!(hi >= lo - 0.03, "ε=4 ({hi}) vs ε=0.5 ({lo})");
}

#[test]
fn figure6_shape_virtual_nodes_help_trimming_is_cheap() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let base = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(60)
        .with_mcmc_iterations(30);
    let full = run_lumos(&ds, &base).test_metric;
    let no_vn = run_lumos(&ds, &base.clone().without_virtual_nodes()).test_metric;
    let no_tt = run_lumos(&ds, &base.clone().without_tree_trimming()).test_metric;
    assert!(
        full > no_vn,
        "virtual nodes must improve accuracy: {full} vs {no_vn}"
    );
    assert!(
        (full - no_tt).abs() < 0.12,
        "trimming must cost almost nothing: {full} vs {no_tt}"
    );
}
