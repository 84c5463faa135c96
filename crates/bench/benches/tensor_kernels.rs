//! Microbenchmarks of the tensor kernels that dominate a training epoch.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use lumos_balance::SecurityMode;
use lumos_common::rng::Xoshiro256pp;
use lumos_core::{
    build_compact, construct_assignment, exchange_features, CompareBackend, DeviceTree,
    LocalGraphKind,
};
use lumos_data::{Dataset, Scale};
use lumos_fed::SimNetwork;
use lumos_tensor::kernels::{
    gather_rows, propagate, scale_rows, scatter_add_rows, segment_softmax,
};
use lumos_tensor::{matmul_rows, matmul_tn_rows, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let a = Tensor::rand_uniform(2048, 192, -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(192, 16, -1.0, 1.0, &mut rng);
    c.bench_function("matmul_2048x192x16", |b| {
        b.iter(|| black_box(a.matmul(black_box(&w))))
    });
    let g = Tensor::rand_uniform(2048, 16, -1.0, 1.0, &mut rng);
    c.bench_function("matmul_tn_backward_2048x192x16", |b| {
        b.iter(|| black_box(a.matmul_tn(black_box(&g))))
    });
}

/// The first layer's two products at the `train_default` batch: 27,648 tree
/// nodes × 192 features × 16 hidden units, the features 41% zeros — a third
/// of the rows (the virtual nodes) entirely, the rest scattered.
fn bench_batch_matmul(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let (m, k, n) = (27_648, 192, 16);
    let mut x = Tensor::rand_uniform(m, k, -1.0, 1.0, &mut rng);
    for i in 0..m {
        let virtual_node = rng.bernoulli(0.36);
        for v in x.row_mut(i) {
            if virtual_node || rng.bernoulli(0.08) {
                *v = 0.0;
            }
        }
    }
    let w = Tensor::rand_uniform(k, n, -1.0, 1.0, &mut rng);
    c.bench_function("matmul_batch_27648x192x16", |b| {
        b.iter(|| black_box(x.matmul(black_box(&w))))
    });
    let g = Tensor::rand_uniform(m, n, -1.0, 1.0, &mut rng);
    c.bench_function("matmul_tn_batch_27648x192x16", |b| {
        b.iter(|| black_box(x.matmul_tn(black_box(&g))))
    });
}

/// The same two products over a real `facebook_like(Small)` batch — a third
/// of its rows virtual, a third one-bit codes, a third centre rows of which
/// most repeat an earlier one — read through its `FeatureRows` and, beside
/// them, through the dense tensor those rows write out to.
fn bench_batch_rows(c: &mut Criterion) {
    let ds = Dataset::facebook_like(Scale::Small);
    let (assignment, _) = construct_assignment(
        &ds.graph,
        true,
        20,
        SecurityMode::CostModel,
        CompareBackend::Scalar,
        2023,
        None,
    );
    let trees: Vec<DeviceTree> = (0..ds.num_nodes() as u32)
        .map(|v| {
            DeviceTree::build(
                LocalGraphKind::VirtualNodeTree,
                v,
                assignment.kept(v).to_vec(),
            )
        })
        .collect();
    let mut rng = Xoshiro256pp::seed_from_u64(6);
    let mut net = SimNetwork::new(ds.num_nodes());
    let exchange = exchange_features(
        &ds.features,
        ds.feature_dim,
        &trees,
        2.0,
        &mut rng,
        &mut net,
    );
    let batch = build_compact(&trees, &ds.features, ds.feature_dim, &exchange);
    let dense = batch.features.to_tensor();
    let (m, k) = dense.dims();
    let w = Tensor::rand_uniform(k, 16, -1.0, 1.0, &mut rng);
    let g = Tensor::rand_uniform(m, 16, -1.0, 1.0, &mut rng);
    c.bench_function("matmul_rows_batch_small_x16", |b| {
        b.iter(|| black_box(matmul_rows(black_box(&batch.features), black_box(&w))))
    });
    c.bench_function("matmul_dense_batch_small_x16", |b| {
        b.iter(|| black_box(dense.matmul(black_box(&w))))
    });
    c.bench_function("matmul_tn_rows_batch_small_x16", |b| {
        b.iter(|| black_box(matmul_tn_rows(black_box(&batch.features), black_box(&g))))
    });
    c.bench_function("matmul_tn_dense_batch_small_x16", |b| {
        b.iter(|| black_box(dense.matmul_tn(black_box(&g))))
    });
}

fn bench_gather_scatter(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let x = Tensor::rand_uniform(4096, 16, -1.0, 1.0, &mut rng);
    let idx: Vec<u32> = (0..12_288).map(|_| rng.next_below(4096) as u32).collect();
    c.bench_function("gather_rows_12k_of_4k", |b| {
        b.iter(|| black_box(gather_rows(black_box(&x), black_box(&idx))))
    });
    let msgs = gather_rows(&x, &idx);
    c.bench_function("scatter_add_rows_12k_into_4k", |b| {
        b.iter(|| black_box(scatter_add_rows(black_box(&msgs), black_box(&idx), 4096)))
    });
}

/// One GCN aggregation at the `train_default` batch — 83k arcs over 27,648
/// nodes of 16-wide embeddings — fused, and as the three kernels it fuses.
fn bench_propagate(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let (nodes, arcs) = (27_648, 83_000);
    let x = Tensor::rand_uniform(nodes, 16, -1.0, 1.0, &mut rng);
    let mut endpoint = || -> Vec<u32> { (0..arcs).map(|_| rng.index(nodes) as u32).collect() };
    let (src, dst) = (endpoint(), endpoint());
    let coeff: Vec<f32> = (0..arcs).map(|_| rng.next_f32()).collect();
    c.bench_function("propagate_83k_arcs_27648x16", |b| {
        b.iter(|| black_box(propagate(black_box(&x), &src, &coeff, &dst, nodes)))
    });
    c.bench_function("gather_scale_scatter_83k_arcs_27648x16", |b| {
        b.iter(|| {
            let scaled = scale_rows(&gather_rows(black_box(&x), &src), &coeff);
            black_box(scatter_add_rows(&scaled, &dst, nodes))
        })
    });
}

fn bench_segment_softmax(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let logits = Tensor::rand_uniform(12_288, 4, -2.0, 2.0, &mut rng);
    let mut seg: Vec<u32> = (0..12_288).map(|_| rng.next_below(4096) as u32).collect();
    seg.sort_unstable();
    c.bench_function("segment_softmax_12k_arcs_4_heads", |b| {
        b.iter(|| black_box(segment_softmax(black_box(&logits), black_box(&seg), 4096)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_batch_matmul, bench_batch_rows, bench_gather_scatter,
        bench_propagate, bench_segment_softmax
}
criterion_main!(benches);
