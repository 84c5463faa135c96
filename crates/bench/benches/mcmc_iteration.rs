//! Cost of the workload balancer: greedy initialization, Algorithm 3, and
//! MCMC iterations — including the greedy-vs-raw ablation.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use lumos_balance::{
    find_max_workload_device, greedy_init, greedy_init_weighted, make_oracle_backend, mcmc_balance,
    Assignment, CompareBackend, CompareOracle, McmcConfig, SecurityMode,
};
use lumos_common::rng::Xoshiro256pp;
use lumos_data::{Dataset, Scale};
use lumos_graph::generate::erdos_renyi;

fn bench_greedy(c: &mut Criterion) {
    let ds = Dataset::facebook_like(Scale::Smoke);
    c.bench_function("greedy_init_smoke", |b| {
        b.iter(|| {
            let mut oracle = CompareOracle::default();
            black_box(greedy_init(&ds.graph, &mut oracle))
        })
    });
}

fn bench_alg3(c: &mut Criterion) {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let assignment = Assignment::full(&ds.graph);
    c.bench_function("find_max_workload_smoke", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        b.iter(|| {
            let mut oracle = CompareOracle::default();
            black_box(find_max_workload_device(
                &ds.graph,
                &assignment,
                &mut oracle,
                &mut rng,
            ))
        })
    });
}

fn bench_mcmc(c: &mut Criterion) {
    let ds = Dataset::facebook_like(Scale::Smoke);
    // Ablation: MCMC seeded by greedy vs from the raw full assignment.
    c.bench_function("mcmc_30_iters_after_greedy", |b| {
        b.iter(|| {
            let mut oracle = CompareOracle::default();
            let init = greedy_init(&ds.graph, &mut oracle);
            let cfg = McmcConfig {
                iterations: 30,
                seed: 1,
            };
            black_box(mcmc_balance(&ds.graph, init, &cfg, &mut oracle))
        })
    });
    c.bench_function("mcmc_30_iters_from_full", |b| {
        b.iter(|| {
            let mut oracle = CompareOracle::default();
            let init = Assignment::full(&ds.graph);
            let cfg = McmcConfig {
                iterations: 30,
                seed: 1,
            };
            black_box(mcmc_balance(&ds.graph, init, &cfg, &mut oracle))
        })
    });
}

/// Scalar-vs-bitsliced pair under the *real* OT circuits on the 48-bit
/// weighted lane: the Algorithm-3 edge sweeps dominate, and the bit-sliced
/// backend packs them 64 comparisons per circuit.
fn bench_mcmc_backends(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let g = erdos_renyi(48, 0.12, &mut rng);
    let costs: Vec<u64> = (0..g.num_nodes()).map(|_| rng.range_u64(1, 1000)).collect();
    for backend in [CompareBackend::Scalar, CompareBackend::Bitsliced] {
        c.bench_function(&format!("mcmc_5_iters_secure_{}", backend.name()), |b| {
            b.iter(|| {
                let mut oracle = make_oracle_backend(SecurityMode::Simulated, backend, 1);
                let init = greedy_init_weighted(&g, Some(&costs), oracle.as_mut());
                let cfg = McmcConfig {
                    iterations: 5,
                    seed: 1,
                };
                black_box(mcmc_balance(&g, init, &cfg, oracle.as_mut()))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_greedy, bench_alg3, bench_mcmc, bench_mcmc_backends
}
criterion_main!(benches);
