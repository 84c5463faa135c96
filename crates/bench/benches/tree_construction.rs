//! Cost of building device trees and the batched forest.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use lumos_common::rng::Xoshiro256pp;
use lumos_core::{build_compact, exchange_features, DeviceTree, LocalGraphKind};
use lumos_data::{Dataset, Scale};
use lumos_fed::SimNetwork;

fn bench_device_tree(c: &mut Criterion) {
    c.bench_function("device_tree_wl32", |b| {
        let neighbors: Vec<u32> = (1..=32).collect();
        b.iter(|| {
            black_box(DeviceTree::with_virtual_nodes(
                0,
                black_box(neighbors.clone()),
            ))
        })
    });
}

fn bench_batched_forest(c: &mut Criterion) {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let trees: Vec<DeviceTree> = (0..ds.num_nodes() as u32)
        .map(|v| {
            DeviceTree::build(
                LocalGraphKind::VirtualNodeTree,
                v,
                ds.graph.neighbors(v).to_vec(),
            )
        })
        .collect();
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let mut net = SimNetwork::new(ds.num_nodes());
    let exchange = exchange_features(
        &ds.features,
        ds.feature_dim,
        &trees,
        2.0,
        &mut rng,
        &mut net,
    );
    c.bench_function("build_compact_forest_smoke", |b| {
        b.iter(|| {
            black_box(build_compact(
                &trees,
                &ds.features,
                ds.feature_dim,
                &exchange,
            ))
        })
    });
}

fn bench_ldp_exchange(c: &mut Criterion) {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let trees: Vec<DeviceTree> = (0..ds.num_nodes() as u32)
        .map(|v| {
            DeviceTree::build(
                LocalGraphKind::VirtualNodeTree,
                v,
                ds.graph.neighbors(v).to_vec(),
            )
        })
        .collect();
    c.bench_function("ldp_feature_exchange_smoke", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        b.iter(|| {
            let mut net = SimNetwork::new(ds.num_nodes());
            black_box(exchange_features(
                &ds.features,
                ds.feature_dim,
                &trees,
                2.0,
                &mut rng,
                &mut net,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_device_tree, bench_batched_forest, bench_ldp_exchange
}
criterion_main!(benches);
