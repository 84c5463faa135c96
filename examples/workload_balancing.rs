//! The heterogeneity-aware tree constructor in isolation (§V): watch the
//! greedy initialization and the MCMC iteration flatten a heavy-tailed
//! workload distribution, with every comparison running under the secure
//! two-party protocol.
//!
//! ```sh
//! cargo run --release --example workload_balancing
//! ```

use lumos::balance::{
    greedy_init, mcmc_balance, summarize, Assignment, CompareBackend, CompareOracle, McmcConfig,
    SecurityMode,
};
use lumos::common::rng::Xoshiro256pp;
use lumos::graph::generate::{homophilous_powerlaw, PowerLawConfig};

fn main() {
    // A power-law social graph: a few hub devices, many leaves.
    let mut rng = Xoshiro256pp::seed_from_u64(42);
    let labels: Vec<u32> = (0..400).map(|_| rng.next_below(4) as u32).collect();
    let cfg = PowerLawConfig {
        alpha: 2.1,
        min_degree: 2,
        max_degree: 80,
        homophily: 0.7,
    };
    let g = homophilous_powerlaw(&labels, &cfg, &mut rng);
    println!(
        "graph: {} devices, {} edges, max degree {}",
        g.num_nodes(),
        g.num_edges(),
        g.max_degree()
    );

    // Untrimmed: workload == degree. The hubs are stragglers.
    let full = Assignment::full(&g);
    let s0 = summarize(&full);
    println!(
        "untrimmed  : max {} | mean {:.1} | imbalance {:.1}x",
        s0.max, s0.mean, s0.imbalance
    );

    // Algorithm 1 — greedy initialization. Every degree comparison runs
    // through the real simulated OT-based comparison circuit.
    let mut oracle = CompareOracle::new(SecurityMode::Simulated, CompareBackend::Scalar, 7);
    let init = greedy_init(&g, &mut oracle);
    let s1 = summarize(&init);
    println!(
        "greedy     : max {} | mean {:.1} | imbalance {:.1}x",
        s1.max, s1.mean, s1.imbalance
    );

    // Algorithm 2 — MCMC with Metropolis–Hastings acceptance.
    let out = mcmc_balance(
        &g,
        init,
        &McmcConfig {
            iterations: 150,
            seed: 9,
        },
        &mut oracle,
    );
    let s2 = summarize(&out.assignment);
    println!(
        "greedy+MCMC: max {} | mean {:.1} | imbalance {:.1}x ({} accepted moves)",
        s2.max, s2.mean, s2.imbalance, out.stats.accepted
    );

    // Everything above ran under the secure-comparison protocol:
    let m = oracle.meter();
    println!(
        "secure comparisons: {} protocol runs, {} messages, {} KiB, {} rounds — \
         no device ever saw another's degree",
        oracle.comparisons(),
        m.messages,
        m.bytes / 1024,
        m.rounds
    );
    out.assignment
        .check_feasible(&g)
        .expect("every relation still represented in at least one tree");
    println!("feasibility check passed: every edge survives in some tree");
}
