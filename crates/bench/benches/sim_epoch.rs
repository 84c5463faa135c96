//! Cost of one discrete-event epoch simulation: the aggregate (self-timed)
//! inbound schedule — every inbound byte from the server — vs the
//! per-destination schedule, at small and large fleets. The per-destination
//! path schedules one arrival event per `(sender → receiver)` edge and a
//! transpose pass, so this pins the price of the corrected timing signal as
//! the fleet scales.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use lumos_common::rng::Xoshiro256pp;
use lumos_sim::{
    simulate_epoch, DeviceProfile, DeviceWork, FleetSpec, Heterogeneity, RoundWork, SERVER_SENDER,
};

/// Fan-in of each device's inbound side in the per-destination workload
/// (mirrors the trainer: a device receives from its retained neighbors).
const FAN_IN: u64 = 8;

fn fleet(n: usize) -> Vec<DeviceProfile> {
    let spec = FleetSpec {
        base: DeviceProfile::baseline(),
        compute: Heterogeneity::Pareto { alpha: 1.1 },
        link: Heterogeneity::Jitter { spread: 0.25 },
        dropout: 0.0,
        rejoin: 1.0,
    };
    spec.sample_fleet(n, &mut Xoshiro256pp::seed_from_u64(0xBE_EF))
}

fn own_work(n: usize) -> Vec<DeviceWork> {
    let mut rng = Xoshiro256pp::seed_from_u64(0xF00D);
    (0..n)
        .map(|_| DeviceWork {
            compute_units: rng.range_f64(10.0, 500.0),
            messages_out: FAN_IN + 1,
            bytes_out: 64 * (FAN_IN + 1),
        })
        .collect()
}

fn aggregate_work(n: usize) -> RoundWork {
    RoundWork::from_lists(
        own_work(n)
            .into_iter()
            .map(|w| (w, [(SERVER_SENDER, 64 * FAN_IN)])),
    )
}

fn per_destination_work(n: usize) -> RoundWork {
    RoundWork::from_lists(own_work(n).into_iter().enumerate().map(|(d, w)| {
        // Ring fan-in: bytes arrive from the FAN_IN preceding devices.
        let inbound: Vec<(u32, u64)> = (1..=FAN_IN)
            .map(|k| (((d as u64 + n as u64 - k) % n as u64) as u32, 64))
            .collect();
        (w, inbound)
    }))
}

fn bench_sim_epoch(c: &mut Criterion) {
    for n in [256usize, 4096] {
        let profiles = fleet(n);
        let aggregate = aggregate_work(n);
        let per_destination = per_destination_work(n);
        c.bench_function(&format!("sim_epoch_aggregate_{n}"), |b| {
            b.iter(|| black_box(simulate_epoch(&profiles, black_box(&aggregate))))
        });
        c.bench_function(&format!("sim_epoch_per_destination_{n}"), |b| {
            b.iter(|| black_box(simulate_epoch(&profiles, black_box(&per_destination))))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sim_epoch
}
criterion_main!(benches);
