//! Head-to-head comparison of all four systems of the paper's evaluation
//! (§VIII-C) on one dataset — a miniature Figure 3.
//!
//! ```sh
//! cargo run --release --example system_comparison
//! ```

use lumos::baselines::{run_centralized, run_lpgnn, run_naive_fedgnn, BaselineConfig};
use lumos::common::table::{fmt2, Table};
use lumos::core::{run_lumos, LumosConfig, TaskKind};
use lumos::data::{Dataset, Scale};
use lumos::gnn::Backbone;

fn main() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let task = TaskKind::Supervised;
    let epochs = 60;

    let mut table = Table::new(
        "Supervised accuracy, Facebook-like (smoke scale)",
        &["system", "accuracy %", "privacy"],
    );

    let lumos = run_lumos(
        &ds,
        &LumosConfig::new(Backbone::Gcn, task)
            .with_epochs(epochs)
            .with_mcmc_iterations(50),
    );
    table.push_row([
        "Lumos".to_string(),
        fmt2(100.0 * lumos.test_metric),
        "ε-LDP features + hidden degrees + local labels".to_string(),
    ]);

    let central = run_centralized(
        &ds,
        &BaselineConfig::new(Backbone::Gcn, task).with_epochs(epochs),
    );
    table.push_row([
        "Centralized GNN".to_string(),
        fmt2(100.0 * central.test_metric),
        "none (server sees everything)".to_string(),
    ]);

    let lpgnn = run_lpgnn(
        &ds,
        &BaselineConfig::new(Backbone::Gcn, task).with_epochs(epochs),
    );
    table.push_row([
        "LPGNN".to_string(),
        fmt2(100.0 * lpgnn.test_metric),
        "ε_x features + ε_y labels, server knows the graph".to_string(),
    ]);

    let naive = run_naive_fedgnn(
        &ds,
        &BaselineConfig::new(Backbone::Gcn, task).with_epochs(epochs),
    );
    table.push_row([
        "Naive FedGNN".to_string(),
        fmt2(100.0 * naive.test_metric),
        "noise on features, labels AND adjacency".to_string(),
    ]);

    table.print();
    println!(
        "Lumos recovers {:.0}% of the centralized accuracy while naive \
         federation collapses — the paper's core result.",
        100.0 * lumos.test_metric / central.test_metric
    );
}
