//! `cargo bench` coverage of the figure harness itself: regenerates the
//! structural figures (dataset table, Fig. 7 CDFs) at smoke scale and runs
//! Fig. 8's row of `figure::FIGURES` (the cost comparison) quick. The
//! accuracy figures (3–6) are the other rows of that table, regenerated by
//! the `run_all` binary — training to convergence inside Criterion would be
//! meaningless timing-wise.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use lumos_bench::figure::Figure;
use lumos_bench::{fig7, table1, HarnessArgs};
use lumos_data::Scale;

fn smoke_args() -> HarnessArgs {
    HarnessArgs {
        scale: Scale::Smoke,
        seed: 1,
        quick: true,
        json: None,
        sensitivity: false,
    }
}

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table_datasets_smoke", |b| {
        b.iter(|| black_box(table1::run(Scale::Smoke)))
    });
}

fn bench_fig7(c: &mut Criterion) {
    c.bench_function("fig7_workload_cdf_smoke", |b| {
        let args = smoke_args();
        b.iter(|| black_box(fig7::run(&args)))
    });
}

fn bench_fig8(c: &mut Criterion) {
    c.bench_function("fig8_system_cost_smoke_quick", |b| {
        let (args, fig8) = (smoke_args(), Figure::named("fig8_system_cost"));
        b.iter(|| black_box(fig8.run(&args)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table1, bench_fig7, bench_fig8
}
criterion_main!(benches);
