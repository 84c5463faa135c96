//! Perf trajectory: scalar vs bit-sliced secure-comparison throughput.
//!
//! Two wall-clock measurements, both under the *real* simulated OT
//! circuits (`SecurityMode::Simulated` — the cost-model oracles are nearly
//! free and would measure nothing):
//!
//! 1. **Batched comparison throughput** on the 48-bit weighted-workload
//!    lane ([`lumos_balance::WEIGHTED_WORKLOAD_BITS`]): mean ns per
//!    comparison for a large independent sweep, per backend.
//! 2. **MCMC iteration rate**: full Algorithm-2 iterations per second on a
//!    cost-weighted graph (so every comparison rides the 48-bit lane), per
//!    backend.
//!
//! [`PerfReport::record`] lists the sections of the machine-readable
//! `BENCH_perf.json` record that CI smoke-parses to assert the bit-sliced
//! win holds (≥10× on the batched sweep); keeping it in a dated artifact is
//! what finally gives the repo a recorded perf trajectory instead of
//! anecdotes.

use lumos_balance::{
    greedy_init_weighted, make_oracle_backend, mcmc_balance, CompareBackend, McmcConfig,
    SecurityMode, WEIGHTED_WORKLOAD_BITS,
};
use lumos_common::rng::Xoshiro256pp;
use lumos_common::table::{fmt2, Table};
use lumos_common::timer::time_it;
use lumos_graph::generate::erdos_renyi;

use crate::args::HarnessArgs;
use crate::emit::{Record, Value};

/// Results of one scalar-vs-bitsliced measurement pass.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Comparison bit width (the 48-bit weighted-workload lane).
    pub bits: u32,
    /// Independent pairs per batched sweep.
    pub batch_lanes: usize,
    /// Mean ns per comparison, scalar backend.
    pub scalar_ns_per_cmp: f64,
    /// Mean ns per comparison, bit-sliced backend.
    pub bitsliced_ns_per_cmp: f64,
    /// OT-traffic messages per sweep, scalar backend.
    pub scalar_messages: u64,
    /// OT-traffic messages per sweep, bit-sliced backend.
    pub bitsliced_messages: u64,
    /// MCMC iterations per second, scalar backend.
    pub mcmc_scalar_iters_per_sec: f64,
    /// MCMC iterations per second, bit-sliced backend.
    pub mcmc_bitsliced_iters_per_sec: f64,
    /// MCMC iterations measured per backend.
    pub mcmc_iterations: usize,
}

impl PerfReport {
    /// Wall-clock speedup of the batched sweep (scalar / bitsliced).
    pub fn compare_speedup(&self) -> f64 {
        self.scalar_ns_per_cmp / self.bitsliced_ns_per_cmp
    }

    /// Wire-message ratio of the batched sweep (scalar / bitsliced).
    pub fn message_ratio(&self) -> f64 {
        self.scalar_messages as f64 / self.bitsliced_messages as f64
    }

    /// Wall-clock speedup of MCMC iterations (bitsliced / scalar rate).
    pub fn mcmc_speedup(&self) -> f64 {
        self.mcmc_bitsliced_iters_per_sec / self.mcmc_scalar_iters_per_sec
    }

    /// The sections of the `BENCH_perf.json` record CI smoke-parses. A
    /// zero denominator makes a ratio non-finite, which the emitter writes
    /// as `null`.
    pub fn record(&self) -> Record {
        use Value::{Num, Object, UInt};
        vec![
            ("bits", UInt(self.bits.into())),
            ("batch_lanes", UInt(self.batch_lanes as u64)),
            (
                "compare",
                Object(vec![
                    ("scalar_ns", Num(self.scalar_ns_per_cmp)),
                    ("bitsliced_ns", Num(self.bitsliced_ns_per_cmp)),
                    ("speedup", Num(self.compare_speedup())),
                    ("scalar_messages", UInt(self.scalar_messages)),
                    ("bitsliced_messages", UInt(self.bitsliced_messages)),
                    ("message_ratio", Num(self.message_ratio())),
                ]),
            ),
            (
                "mcmc",
                Object(vec![
                    ("iterations", UInt(self.mcmc_iterations as u64)),
                    ("scalar_iters_per_sec", Num(self.mcmc_scalar_iters_per_sec)),
                    (
                        "bitsliced_iters_per_sec",
                        Num(self.mcmc_bitsliced_iters_per_sec),
                    ),
                    ("speedup", Num(self.mcmc_speedup())),
                ]),
            ),
        ]
    }
}

/// Times one batched 48-bit sweep per backend and one secure MCMC run per
/// backend, and checks on the way that the two backends agree bit for bit
/// on every outcome (panicking loudly otherwise — a perf record measured
/// on divergent engines would be meaningless).
pub fn run(args: &HarnessArgs) -> PerfReport {
    let bits = WEIGHTED_WORKLOAD_BITS;
    let lanes = if args.quick { 1024 } else { 4096 };
    let reps = if args.quick { 3 } else { 5 };
    let mut rng = Xoshiro256pp::seed_from_u64(args.seed);
    let pairs: Vec<(u64, u64)> = (0..lanes)
        .map(|_| (rng.next_below(1 << bits), rng.next_below(1 << bits)))
        .collect();

    let time_backend = |backend: CompareBackend| {
        let mut oracle = make_oracle_backend(SecurityMode::Simulated, backend, args.seed);
        // Warm-up pass (page-in, dealer state) before the timed reps.
        let warmup = oracle.compare_batch(&pairs, bits);
        let baseline = oracle.meter();
        let ((), elapsed) = time_it(|| {
            for _ in 0..reps {
                std::hint::black_box(oracle.compare_batch(&pairs, bits));
            }
        });
        let per_sweep = oracle.meter().since(&baseline).messages / reps as u64;
        (elapsed * 1e9 / (reps * lanes) as f64, per_sweep, warmup)
    };
    let (scalar_ns, scalar_msgs, scalar_outs) = time_backend(CompareBackend::Scalar);
    let (sliced_ns, sliced_msgs, sliced_outs) = time_backend(CompareBackend::Bitsliced);
    assert_eq!(
        scalar_outs, sliced_outs,
        "backends must agree lane for lane"
    );

    // MCMC iteration rate under the real circuits, cost-weighted so every
    // comparison runs on the wide lane.
    let mcmc_iters = if args.quick { 8 } else { 20 };
    let mut grng = Xoshiro256pp::seed_from_u64(args.seed ^ 0xD1CE);
    let g = erdos_renyi(48, 0.12, &mut grng);
    let costs: Vec<u64> = (0..g.num_nodes())
        .map(|_| grng.range_u64(1, 1000))
        .collect();
    // Best-of-N passes per backend: a single wall-clock sample on a shared
    // CI runner is one noisy-neighbor spike away from a spurious failure;
    // the fastest pass is the least-perturbed estimate of each engine.
    let mcmc_passes = if args.quick { 2 } else { 3 };
    let mcmc_rate = |backend: CompareBackend| {
        let mut best_rate = 0.0f64;
        let mut last = None;
        for _ in 0..mcmc_passes {
            let mut oracle = make_oracle_backend(SecurityMode::Simulated, backend, args.seed);
            let init = greedy_init_weighted(&g, Some(&costs), oracle.as_mut());
            let cfg = McmcConfig {
                iterations: mcmc_iters,
                seed: args.seed ^ 0x5EED,
            };
            let (out, secs) = time_it(|| mcmc_balance(&g, init, &cfg, oracle.as_mut()));
            best_rate = best_rate.max(mcmc_iters as f64 / secs);
            last = Some(out);
        }
        (best_rate, last.expect("at least one pass"))
    };
    let (scalar_rate, scalar_chain) = mcmc_rate(CompareBackend::Scalar);
    let (sliced_rate, sliced_chain) = mcmc_rate(CompareBackend::Bitsliced);
    assert_eq!(
        scalar_chain.assignment, sliced_chain.assignment,
        "backends must drive the chain to the same state"
    );

    PerfReport {
        bits,
        batch_lanes: lanes,
        scalar_ns_per_cmp: scalar_ns,
        bitsliced_ns_per_cmp: sliced_ns,
        scalar_messages: scalar_msgs,
        bitsliced_messages: sliced_msgs,
        mcmc_scalar_iters_per_sec: scalar_rate,
        mcmc_bitsliced_iters_per_sec: sliced_rate,
        mcmc_iterations: mcmc_iters,
    }
}

/// Renders the report as a human-readable markdown table.
pub fn table(r: &PerfReport) -> Table {
    let mut t = Table::new(
        "Secure-comparison backends: scalar vs bit-sliced (real OT circuits)",
        &["metric", "scalar", "bitsliced", "ratio"],
    );
    t.push_row([
        format!("ns / {}-bit comparison (batch {})", r.bits, r.batch_lanes),
        fmt2(r.scalar_ns_per_cmp),
        fmt2(r.bitsliced_ns_per_cmp),
        format!("{}x", fmt2(r.compare_speedup())),
    ]);
    t.push_row([
        "OT messages / sweep".into(),
        r.scalar_messages.to_string(),
        r.bitsliced_messages.to_string(),
        format!("{}x", fmt2(r.message_ratio())),
    ]);
    t.push_row([
        format!("MCMC iters / s ({} iters)", r.mcmc_iterations),
        fmt2(r.mcmc_scalar_iters_per_sec),
        fmt2(r.mcmc_bitsliced_iters_per_sec),
        format!("{}x", fmt2(r.mcmc_speedup())),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::tests::assert_has_keys;
    use lumos_data::Scale;

    #[test]
    fn quick_run_reports_deterministic_facts_and_renders() {
        // Only deterministic properties are asserted here: wall-clock
        // thresholds in a debug-mode unit test sharing the host with the
        // rest of the suite would be a flake factory. The hard ≥10×/≥1.5×
        // wall-clock gates live in CI's release-mode perf_compare step.
        let args = HarnessArgs {
            scale: Scale::Smoke,
            seed: 7,
            quick: true,
            json: None,
            sensitivity: false,
        };
        let r = run(&args);
        assert!(r.scalar_ns_per_cmp > 0.0 && r.bitsliced_ns_per_cmp > 0.0);
        assert!(r.mcmc_scalar_iters_per_sec > 0.0 && r.mcmc_bitsliced_iters_per_sec > 0.0);
        assert!(
            r.message_ratio() > 40.0,
            "message ratio {:.1} must approach the 64-lane packing",
            r.message_ratio()
        );
        // The keys `.github/workflows/ci.yml`'s perf step reads: `bits`,
        // `compare.{speedup, message_ratio}`, `mcmc.speedup`.
        let record = r.record();
        assert_has_keys(&record, &["bits"]);
        let nested: [(&str, &[&str]); 2] = [
            ("compare", &["speedup", "message_ratio"]),
            ("mcmc", &["speedup"]),
        ];
        for (section, keys) in nested {
            match record.iter().find(|(k, _)| *k == section) {
                Some((_, Value::Object(fields))) => assert_has_keys(fields, keys),
                other => panic!("`{section}` must be an object, got {other:?}"),
            }
        }
        let json = crate::emit::document("perf_compare", None, &args, record).render();
        assert!(json.contains("\"bench\": \"perf_compare\""));
        assert!(json.contains("  \"bits\": 48,"));
        // Table renders without panicking.
        let _ = table(&r);
    }
}
