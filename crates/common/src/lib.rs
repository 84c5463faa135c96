//! Shared infrastructure for the Lumos workspace.
//!
//! This crate deliberately has no external dependencies. It provides:
//!
//! * [`rng`] — a deterministic, seedable xoshiro256++ pseudo-random number
//!   generator. Every stochastic component in the workspace (graph
//!   generation, LDP noise, MCMC sampling, weight initialization) draws from
//!   this generator so that experiments are exactly reproducible from a seed.
//! * [`dist`] — samplers for the distributions the paper's evaluation needs:
//!   normal (Box–Muller), discrete power laws (the source of degree
//!   heterogeneity, Definition 3 in the paper), Bernoulli and categorical.
//! * [`stats`] — the empirical CDF of Figure 7 (workload CDF).
//! * [`table`] — a small markdown table builder used by the experiment
//!   harness to print the same rows/series the paper reports.
//! * [`timer`] — wall-clock timing helpers for Figure 8 (training time).

#![forbid(unsafe_code)]
pub mod dist;
pub mod rng;
pub mod stats;
pub mod table;
pub mod timer;

pub use rng::{SplitMix64, Xoshiro256pp};
pub use stats::Ecdf;
pub use table::Table;
pub use timer::Stopwatch;
