//! `lumos-graph` — graph structures for the federated setting.
//!
//! Provides the global [`Graph`](graph::Graph) ground truth, whose
//! adjacency lists are the per-device ego networks that define node-level
//! separation (§IV-A of the paper), and random generators with the
//! heavy-tailed degree distributions that create the workload-imbalance
//! problem Lumos solves.

#![forbid(unsafe_code)]
pub mod generate;
pub mod graph;

pub use generate::{
    barabasi_albert, edge_homophily, erdos_renyi, homophilous_powerlaw, PowerLawConfig,
};
pub use graph::Graph;
