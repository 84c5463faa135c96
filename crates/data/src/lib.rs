//! `lumos-data` — synthetic datasets for the Lumos evaluation.
//!
//! Generates Facebook-like and LastFM-like graphs (the paper's §VIII-A
//! datasets, substituted by the statistical stand-ins of [`dataset`]) and
//! the node/edge splits of §VIII-B.

#![forbid(unsafe_code)]
pub mod dataset;
pub mod splits;

pub use dataset::{Dataset, DatasetConfig, Scale};
pub use splits::{sample_non_edges, EdgeSplit, NodeSplit};
