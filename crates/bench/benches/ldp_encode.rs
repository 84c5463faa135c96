//! Cost and variance of the LDP feature encoders, including the
//! binned-vs-full ablation of §VI-A.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use lumos_common::rng::Xoshiro256pp;
use lumos_ldp::{FeatureEncoder, OneBitMechanism};

fn bench_onebit(c: &mut Criterion) {
    let mech = OneBitMechanism::new(0.1, 0.0, 1.0);
    c.bench_function("onebit_encode_decode", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        b.iter(|| black_box(mech.decode(mech.encode(0.42, &mut rng))))
    });
}

fn bench_binned_vs_full(c: &mut Criterion) {
    let dim = 192;
    let wl = 8;
    let enc = FeatureEncoder::new(2.0, wl, dim);
    let feature: Vec<f32> = (0..dim).map(|i| (i % 7) as f32 / 7.0).collect();
    c.bench_function("encode_binned_192d_8bins", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        b.iter(|| black_box(enc.encode_binned(&feature, &mut rng)))
    });
    c.bench_function("encode_full_192d_8copies", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        b.iter(|| black_box(enc.encode_full(&feature, 2.0, &mut rng)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_onebit, bench_binned_vs_full
}
criterion_main!(benches);
