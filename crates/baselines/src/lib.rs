//! `lumos-baselines` — the comparison systems of §VIII-C.
//!
//! * **Centralized GNN** — server sees the true graph, raw features and
//!   labels (upper reference).
//! * **LPGNN-like** — server-known structure, multi-bit-privatized features
//!   (ε_x = 2) and randomized-response labels (ε_y = 1), with KProp
//!   denoising.
//! * **Naive FedGNN** — Gaussian-noised features (ε = 2), randomized-
//!   response adjacency and labels (ε = 1 each), trained on the noised
//!   graph (lower reference).
//!
//! Each system's budgets are private constants (LPGNN's are the paper's). All
//! three share one plain-graph training loop, at the task's learning rate,
//! so the only differences are the privatized inputs, making the
//! comparison a controlled one.

#![forbid(unsafe_code)]
pub mod common;
pub mod systems;

pub use common::{train_plain, PlainRun};
pub use systems::{run_centralized, run_lpgnn, run_naive_fedgnn, BaselineConfig};
