//! Cross-product conformance: the laws of `common::laws` on a seeded
//! all-pairs cover of the config space (`lumos_bench::space`).
//!
//! The eight axes — policy, topology, faults, scenario, objective, backend,
//! task, backbone — multiply to 6,720 configs. The cover trains a few dozen
//! in which every pair of values of any two axes meets, each on Facebook
//! `Smoke` for 4 epochs and 10 MCMC iterations, and asserts on every one:
//!
//! - (i) it runs twice to identical reports (in the in-suite cover, the
//!   first config of each backbone; the seed sweep runs every one twice);
//! - (ii) every round record conserves updates and the records refold to
//!   the summary;
//! - (iii) secure comparisons are metered;
//! - (iv) each collapse law whose premise the config fits: the config and
//!   its counterpart run identically (and the counterpart keeps (ii) and
//!   (iii) too).
//!
//! A bigger seed sweep of covers is `#[ignore]`d; CI runs it in
//! `--release`.

#[expect(
    dead_code,
    reason = "the checker calls the laws, not the single-run helpers"
)]
mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::laws::{self, Collapse};
use lumos::balance::SecurityMode;
use lumos::core::{run_lumos, CompareBackend, LumosConfig, TaskKind};
use lumos::data::{Dataset, DatasetConfig, Scale};
use lumos::gnn::Backbone;
use lumos_bench::presets::map_pairs;
use lumos_bench::space::{apply, Grid};

/// Trains seed `seed`'s cover under every law, two configs at a time —
/// law (i) on every config when `every_twice`, else on the first of each
/// backbone; returns the collapse laws it applied, once per config that fit
/// each.
fn check_cover(seed: u64, every_twice: bool) -> Vec<Collapse> {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let n = ds.num_nodes();
    let base = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(4)
        .with_mcmc_iterations(10)
        .with_seed(seed);
    let mut cover = Grid::axes(n).pairwise(seed);
    // Pair configs of one backbone (the last axis): a GAT run costs several
    // GCN runs, and a pair waits for its slower half.
    cover.sort_by_key(|point| format!("{:?}", point.last()));
    let twice = |i: usize| every_twice || i == 0 || cover[i - 1].last() != cover[i].last();
    let points: Vec<(&Vec<_>, bool)> = (0..cover.len()).map(|i| (&cover[i], twice(i))).collect();
    let checked = map_pairs(&points, |&(point, twice)| {
        let cfg = apply(base.clone(), point);
        let report = if twice {
            laws::same_seed(&ds, &cfg)
        } else {
            run_lumos(&ds, &cfg)
        };
        let mut applied = Vec::new();
        for law in Collapse::ALL {
            let Some(twin) = law.counterpart(&cfg, n) else {
                continue;
            };
            let collapsed = run_lumos(&ds, &twin);
            law.assert(&report, &collapsed, &format!("{cfg:?}"));
            laws::conserves_updates(&collapsed, &twin, n);
            laws::meters_secure_comparisons(&collapsed, &twin);
            applied.push(law);
        }
        laws::conserves_updates(&report, &cfg, n);
        laws::meters_secure_comparisons(&report, &cfg);
        applied
    });
    checked.concat()
}

#[test]
fn the_all_pairs_cover_keeps_every_law() {
    let applied = check_cover(2023, false);
    for law in Collapse::ALL {
        assert!(
            applied.contains(&law),
            "no config of the cover fits {law:?}"
        );
    }
}

#[test]
#[ignore = "≈ 80 s in `--release`: law (i) on every config of the in-suite cover, and eight more covers"]
fn a_seed_sweep_of_covers_keeps_every_law() {
    for seed in [2023].into_iter().chain(1..=8) {
        check_cover(seed, true);
    }
}

/// The one comparison engine charges exactly what the cost model charges:
/// a run that executes the OT circuits and a run that prices them give the
/// same report — assignments, comparison counts and secure meters — under
/// each backend.
#[test]
fn simulated_runs_report_what_the_cost_model_prices() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    for backend in [CompareBackend::Scalar, CompareBackend::Bitsliced] {
        let priced = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
            .with_epochs(2)
            .with_mcmc_iterations(5)
            .with_compare_backend(backend);
        let simulated = LumosConfig {
            security: SecurityMode::Simulated,
            ..priced.clone()
        };
        let (a, b) = (run_lumos(&ds, &priced), run_lumos(&ds, &simulated));
        assert_eq!(a.first_difference(&b), None, "{}", backend.name());
        assert_eq!(a.digest(), b.digest(), "{}", backend.name());
    }
}

/// A dataset too small for its task either trains or is refused with one
/// message naming the dataset, its size and the empty part of the split —
/// never a panic deep in a loss or a metric.
#[test]
fn dataset_corners_train_or_name_their_empty_part() {
    let corners = [
        (TaskKind::Supervised, 2..=4),
        (TaskKind::Unsupervised, 2..=12),
    ];
    for (task, sizes) in corners {
        for num_nodes in sizes {
            let ds = Dataset::generate(&DatasetConfig {
                num_nodes,
                ..DatasetConfig::facebook_like(Scale::Smoke)
            });
            let cfg = LumosConfig::new(Backbone::Gcn, task)
                .with_epochs(2)
                .with_mcmc_iterations(5);
            let refused = format!(
                "facebook: a {} split of n = {num_nodes} leaves the ",
                task.name()
            );
            match catch_unwind(AssertUnwindSafe(|| run_lumos(&ds, &cfg))) {
                Ok(report) => assert_eq!(report.rounds.len(), 2),
                Err(panic) => {
                    let message = panic
                        .downcast_ref::<String>()
                        .map_or("a non-string panic", String::as_str);
                    assert!(
                        message.starts_with(&refused) && message.ends_with(" empty"),
                        "n = {num_nodes}, {}: {message}",
                        task.name()
                    );
                }
            }
        }
    }
}
