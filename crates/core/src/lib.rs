//! `lumos-core` — the Lumos federated GNN framework (the paper's primary
//! contribution).
//!
//! Lumos learns node embeddings in the node-level federated setting where
//! each device holds only its ego network, protecting features with ε-LDP
//! and degrees behind secure comparisons. The crate composes the substrate
//! crates into the two modules of §IV-B:
//!
//! * the **heterogeneity-aware tree constructor** —
//!   [`tree`] (virtual-node trees, Fig. 2) +
//!   [`constructor`] (greedy + MCMC trimming, Algorithms 1–3), and
//! * the **tree-based GNN trainer** —
//!   [`init`] (LDP embedding initialization, Eq. 26–27) +
//!   [`batch`] (the simulator's batched forest) +
//!   [`task`] (the supervised / unsupervised head: loss and metric) +
//!   [`trainer`] (message passing, POOL, the synchronized round).
//!
//! ```no_run
//! use lumos_core::{run_lumos, LumosConfig, TaskKind};
//! use lumos_data::{Dataset, Scale};
//! use lumos_gnn::Backbone;
//!
//! let ds = Dataset::facebook_like(Scale::Smoke);
//! let cfg = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised);
//! let report = run_lumos(&ds, &cfg);
//! println!("test accuracy = {:.3}", report.test_metric);
//! ```

#![forbid(unsafe_code)]
pub mod batch;
pub mod config;
pub mod constructor;
pub mod init;
mod pooling;
pub mod report;
pub mod task;
pub mod trainer;
pub mod tree;

pub use batch::{build_batched, build_compact, BatchedTrees, FeatureRows};
pub use config::{ConfigError, LumosConfig, TaskKind};
pub use constructor::{construct_assignment, construct_assignment_sharded};
pub use init::{exchange_features, LdpExchange};
pub use lumos_balance::{BalanceObjective, CompareBackend};
pub use lumos_sim::AggregationPolicy;
pub use lumos_topo::{Topology, TopologyConfig};
pub use report::{
    ConstructorReport, EpochMetrics, RoundRecord, RoundSim, RunFootprint, RunReport, SimSummary,
};
pub use trainer::{run_lumos, run_lumos_measured};
pub use tree::{DeviceTree, LocalGraphKind, TreeNode};
