//! Cost of the secure two-party protocols behind the tree constructor: one
//! engine, timed at its two lane widths (1 pair per circuit, or a full
//! 64-lane word).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use lumos_common::rng::Xoshiro256pp;
use lumos_crypto::{
    ot_transfer, secure_compare, secure_compare_batch, secure_difference, CommMeter, OtDealer,
    TwoParty, LANES,
};

fn bench_ot(c: &mut Criterion) {
    c.bench_function("ot_transfer", |b| {
        let mut dealer = OtDealer::new(7, 1);
        let mut meter = CommMeter::new();
        b.iter(|| black_box(ot_transfer(1, 0, 1, &mut dealer, &mut meter)))
    });
}

fn bench_compare(c: &mut Criterion) {
    for bits in [8u32, 16, 32] {
        c.bench_function(&format!("secure_compare_{bits}bit"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut ctx = TwoParty::new(seed, 1);
                black_box(secure_compare(
                    &mut ctx,
                    &[(123 % (1 << (bits - 1)), 99)],
                    bits,
                ))
            })
        });
    }
}

/// Scalar-vs-bitsliced pair on the 48-bit weighted-workload lane: the same
/// 256 independent comparisons evaluated one circuit per pair (1 lane) vs
/// 64 lanes per word (4 words total).
fn bench_compare_batch(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::seed_from_u64(2023);
    let pairs: Vec<(u64, u64)> = (0..256)
        .map(|_| (rng.next_below(1 << 48), rng.next_below(1 << 48)))
        .collect();
    c.bench_function("compare_256x48bit_scalar", |b| {
        b.iter(|| black_box(secure_compare_batch(7, &pairs, 48, 1)))
    });
    c.bench_function("compare_256x48bit_bitsliced", |b| {
        b.iter(|| black_box(secure_compare_batch(7, &pairs, 48, LANES)))
    });
}

fn bench_difference(c: &mut Criterion) {
    c.bench_function("secure_difference", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut ctx = TwoParty::new(seed, 1);
            black_box(secure_difference(&mut ctx, 1234, 987))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_ot, bench_compare, bench_compare_batch, bench_difference
}
criterion_main!(benches);
