//! `lumos-balance` — the heterogeneity-aware workload balancer (§V).
//!
//! Contains the min–max workload-balancing problem (Eq. 10, NP-hard by
//! Theorem 1), the greedy initialization of Algorithm 1, the secure
//! max-workload location protocol of Algorithm 3, and the MCMC /
//! Metropolis–Hastings iteration of Algorithm 2 whose tail behaviour is
//! bounded by Theorem 2. All private-value comparisons run through the one
//! [`CompareOracle`], which either executes the real simulated two-party
//! circuits or charges the identical cost model.

#![forbid(unsafe_code)]
pub mod analysis;
#[cfg(test)]
mod exact;
#[cfg(test)]
mod flow;
pub mod greedy;
pub mod maxfind;
pub mod mcmc;
pub mod oracle;
pub mod problem;
pub mod rebalance;

pub use analysis::{summarize, BalanceSummary};
pub use greedy::{greedy_init, greedy_init_weighted, rounded_log_weighted, LOG_DEGREE_BITS};
pub use maxfind::{
    find_max_workload_device, workload_bits, MaxFindOutcome, ServerTraffic, WEIGHTED_WORKLOAD_BITS,
    WORKLOAD_BITS,
};
pub use mcmc::{mcmc_balance, McmcConfig, McmcOutcome, McmcStats};
pub use oracle::{make_oracle_backend, CompareBackend, CompareOracle, SecurityMode};
pub use problem::{device_id_count, objective_lower_bound, Assignment, BalanceObjective};
pub use rebalance::{rebalance_assignment, RebalanceOutcome};
