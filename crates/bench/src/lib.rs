//! `lumos-bench` — the experiment harness.
//!
//! One module per table/figure of the paper's evaluation (§VIII); each has a
//! matching binary in `src/bin/`. All experiments accept `--scale
//! smoke|small|paper` (default `small`), `--seed N`, and print the
//! series/rows the paper reports as markdown tables; the CI sweeps also
//! write a JSON record (`--json PATH`).

#![forbid(unsafe_code)]
pub mod args;
pub mod chaos;
pub mod emit;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod hetero;
pub mod paper;
pub mod perf;
pub mod presets;
pub mod scale;
pub mod table1;

pub use args::HarnessArgs;
pub use presets::{epochs_for, mcmc_iterations_for};
