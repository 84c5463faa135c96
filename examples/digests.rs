//! The refactor oracle: one `RunReport::digest()` line per pinned config.
//!
//! Twelve `run_lumos` configs (default, the bit-sliced comparison backend,
//! GAT, link prediction, the synchronous barrier on a frozen and on a
//! churning fleet, one per non-trivial aggregation policy, the hierarchical
//! barrier and deadline, the fully loaded run) and the baselines on both
//! tasks, all on `facebook_like(Smoke)` at seed 2023, 8 epochs, 10 MCMC
//! iterations. Identical invocations print identical
//! lines; a behaviour-preserving change prints the same lines before and
//! after.
//!
//! Each line carries three digests: the report's, the report's with the
//! four virtual-time fields (`sim.{total_virtual_secs,
//! avg_epoch_virtual_secs, straggler_sequence, mean_utilization}`) zeroed,
//! and the per-round records' (`RunReport::rounds_digest`, which the
//! report's does not fold). A change that re-prices rounds without
//! touching what is trained moves the first column and leaves the second
//! alone — "timing moved, training did not" is one `diff` of the second
//! column; a change that only adds a record field moves only the third.
//!
//! `tests/round_records.rs` includes this file for [`configs`], so the
//! identities it checks run on exactly the configs pinned here.
//!
//! ```sh
//! cargo run --release --example digests
//! ```

use lumos::balance::CompareBackend;
use lumos::baselines::{run_centralized, run_lpgnn, run_naive_fedgnn, BaselineConfig};
use lumos::core::{run_lumos, LumosConfig, RunReport, TaskKind};
use lumos::data::{Dataset, DatasetConfig, Scale};
use lumos::gnn::Backbone;
use lumos::sim::{FaultSpec, Scenario};
use lumos_bench::space::{self, Setting, BUFFERED, DEADLINE, HIER_8, VIRTUAL_SECS};

const SEED: u64 = 2023;
const EPOCHS: usize = 8;

/// The report's digest with every virtual-time field zeroed.
fn untimed_digest(r: &RunReport) -> u64 {
    let mut r = r.clone();
    if let Some(s) = &mut r.sim {
        s.total_virtual_secs = 0.0;
        s.avg_epoch_virtual_secs = 0.0;
        s.straggler_sequence.clear();
        s.mean_utilization = 0.0;
    }
    r.digest()
}

fn line(name: &str, r: &RunReport) {
    let (cuts, buffered, migrations) = r.sim.as_ref().map_or((0, 0, 0), |s| {
        (s.late_drops, s.buffered_updates, s.migrations)
    });
    println!(
        "{name:<40} {:#018x}  untimed {:#018x}  rounds {:#018x}  test_metric {:.6}  cuts {cuts} buffered {buffered} migrations {migrations}",
        r.digest(),
        untimed_digest(r),
        r.rounds_digest(),
        r.test_metric,
    );
}

/// The twelve pinned `run_lumos` configs, by name: the supervised GCN
/// base with the config-space values (`lumos_bench::space`) each row sets.
pub fn configs() -> [(&'static str, LumosConfig); 12] {
    const TAIL: Setting = Setting::Scenario(Some(Scenario::StragglerTail));
    const CHURN: Setting = Setting::Scenario(Some(Scenario::Churn));
    let base = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(EPOCHS)
        .with_mcmc_iterations(10)
        .with_seed(SEED);
    let at = |point: &[Setting]| space::apply(base.clone(), point);
    let devices = DatasetConfig::facebook_like(Scale::Smoke).num_nodes;
    let lossy = Setting::Faults(FaultSpec::message_loss(0.05));
    [
        ("GCN-sup default", at(&[])),
        (
            "GCN-sup Bitsliced",
            at(&[Setting::Backend(CompareBackend::Bitsliced)]),
        ),
        ("GAT-sup", at(&[Setting::Backbone(Backbone::Gat)])),
        ("GCN-unsup", at(&[Setting::Task(TaskKind::Unsupervised)])),
        ("FullSync x StragglerTail", at(&[TAIL])),
        ("FullSync x Churn", at(&[CHURN])),
        ("Deadline{2} x StragglerTail", at(&[TAIL, DEADLINE])),
        ("FullSync x StragglerTail x Hier{8}", at(&[TAIL, HIER_8])),
        (
            "Deadline{2} x StragglerTail x Hier{8}",
            at(&[TAIL, HIER_8, DEADLINE]),
        ),
        ("Buffered{2,0.5} x Churn", at(&[CHURN, BUFFERED])),
        (
            "Async{240} x StragglerTail",
            at(&[TAIL, Setting::Policy(space::quorum(devices))]),
        ),
        ("loaded", at(&[TAIL, VIRTUAL_SECS, HIER_8, BUFFERED, lossy])),
    ]
}

fn main() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    for (name, cfg) in &configs() {
        line(name, &run_lumos(&ds, cfg));
    }

    for (task, tag) in [
        (TaskKind::Supervised, "sup"),
        (TaskKind::Unsupervised, "unsup"),
    ] {
        let cfg = BaselineConfig::new(Backbone::Gcn, task)
            .with_epochs(EPOCHS)
            .with_seed(SEED);
        line(&format!("centralized {tag}"), &run_centralized(&ds, &cfg));
        // LPGNN is a supervised-only system (§VIII-C); it rejects the other task.
        if task == TaskKind::Supervised {
            line(&format!("lpgnn {tag}"), &run_lpgnn(&ds, &cfg));
        }
        line(&format!("naive-fedgnn {tag}"), &run_naive_fedgnn(&ds, &cfg));
    }
}
