//! Property tests for the hierarchical aggregation topology: every
//! construction variant partitions the fleet into non-empty contiguous
//! shards covering each device exactly once, the two-tier POOL conserves
//! the flat pool's mass, and the one grouped round handler cuts exactly
//! what the post-hoc per-shard reference cuts.

use proptest::prelude::*;

use lumos_common::rng::Xoshiro256pp;
use lumos_sim::{
    AggregationPolicy, DeviceProfile, DeviceWork, EpochStats, EventDrivenRuntime, SERVER_SENDER,
};
use lumos_topo::{pool_flat, pool_tiered, shard_late_with_staleness, ShardRoundPolicies, Topology};

fn assert_exact_cover(t: &Topology, n: usize, k: usize) {
    assert_eq!(t.num_devices(), n);
    assert_eq!(t.num_aggregators(), k);
    let mut covered = vec![0u32; n];
    for (shard, range) in t.ranges() {
        assert!(!range.is_empty(), "shard {shard} is empty");
        for d in range {
            covered[d as usize] += 1;
            assert_eq!(t.shard_of(d), shard as u32);
        }
    }
    assert!(
        covered.iter().all(|&c| c == 1),
        "every device must belong to exactly one shard"
    );
    let vec = t.shard_vector();
    assert!(
        vec.windows(2).all(|w| w[0] <= w[1]),
        "contiguous shards imply a sorted shard vector"
    );
}

proptest! {
    /// Satellite: shard assignments cover every device exactly once,
    /// for every construction variant and any fleet/shard shape.
    #[test]
    fn shards_cover_every_device_exactly_once(
        n in 1usize..400, k_frac in 0.0f64..1.0, seed in any::<u64>()
    ) {
        let k = 1 + ((n - 1) as f64 * k_frac) as usize;
        assert_exact_cover(&Topology::contiguous(n, k), n, k);
        assert_exact_cover(&Topology::seeded(n, k, seed), n, k);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let costs: Vec<u64> = (0..n).map(|_| rng.next_below(10_000)).collect();
        assert_exact_cover(&Topology::cost_balanced(&costs, k), n, k);
    }

    /// Satellite: hierarchical pooling with all-ones weights conserves
    /// the POOL sum — the tiered merge pools the same mass per vertex
    /// as the flat path (up to float re-association across shards).
    #[test]
    fn all_ones_tiered_pool_conserves_flat_pool(
        n in 1usize..64, k_frac in 0.0f64..1.0, seed in any::<u64>(),
        leaves_per_device in 1usize..6, num_vertices in 1usize..32
    ) {
        let k = 1 + ((n - 1) as f64 * k_frac) as usize;
        let topo = Topology::seeded(n, k, seed);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x9001);
        let mut owners = Vec::new();
        let mut vertices = Vec::new();
        let mut values = Vec::new();
        for d in 0..n as u32 {
            for _ in 0..leaves_per_device {
                owners.push(d);
                vertices.push(rng.next_below(num_vertices as u64) as u32);
                values.push(rng.range_f64(-10.0, 10.0));
            }
        }
        let weights = vec![1.0f64; values.len()];
        let flat = pool_flat(num_vertices, &vertices, &values, &weights);
        let tiered = pool_tiered(num_vertices, &topo, &owners, &vertices, &values, &weights);
        for (v, (f, t)) in flat.iter().zip(&tiered).enumerate() {
            prop_assert!(
                (f - t).abs() <= 1e-9 * (1.0 + f.abs()),
                "vertex {v}: flat {f} vs tiered {t}"
            );
        }
        let flat_sum: f64 = flat.iter().sum();
        let tiered_sum: f64 = tiered.iter().sum();
        prop_assert!(
            (flat_sum - tiered_sum).abs() <= 1e-9 * (1.0 + flat_sum.abs()),
            "pool mass must be conserved: {flat_sum} vs {tiered_sum}"
        );
    }

    /// One shard ⇒ the per-shard policy cut IS the global one, bit for
    /// bit, for every policy family.
    #[test]
    fn single_shard_policy_cut_is_bitwise_global(
        n in 1usize..64, seed in any::<u64>(), factor in 1.0f64..4.0
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let times: Vec<Option<f64>> = (0..n)
            .map(|_| rng.bernoulli(0.85).then(|| rng.range_f64(0.01, 50.0)))
            .collect();
        let stats = EpochStats {
            makespan_secs: 0.0,
            busy_secs: vec![0.0; n],
            idle_secs: vec![0.0; n],
            update_delivery_secs: times,
            straggler: None,
            active_devices: n,
            events: 0,
        };
        let topo = Topology::contiguous(n, 1);
        for policy in [
            AggregationPolicy::FullSync,
            AggregationPolicy::Deadline { factor },
            AggregationPolicy::Buffered { factor, decay: 0.5 },
        ] {
            prop_assert_eq!(
                shard_late_with_staleness(&policy, &stats, &topo),
                policy.late_with_staleness(&stats)
            );
        }
    }

    /// The one handler over a topology's shards is the post-hoc per-shard
    /// cut: on a live run over any seeded fleet and any shard shape its
    /// verdicts equal `shard_late_with_staleness` on the finished round,
    /// for the shard-local deadlines and the global quorum alike — and a
    /// round with somebody late closes at its last awaited landing.
    #[test]
    fn grouped_handler_verdicts_equal_the_post_hoc_shard_cut(
        n in 1usize..64, k_frac in 0.0f64..1.0, seed in any::<u64>(),
        factor in 1.0f64..4.0, quorum in 1usize..70
    ) {
        let k = 1 + ((n - 1) as f64 * k_frac) as usize;
        let topo = Topology::seeded(n, k, seed);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x7071);
        let profiles: Vec<DeviceProfile> = (0..n)
            .map(|_| DeviceProfile {
                compute_rate: rng.range_f64(0.5, 500.0),
                available: rng.bernoulli(0.9),
                ..DeviceProfile::baseline()
            })
            .collect();
        let work: Vec<DeviceWork> = (0..n)
            .map(|_| {
                let burst = rng.next_below(2);
                DeviceWork {
                    compute_units: rng.range_f64(0.0, 5000.0),
                    messages_out: burst,
                    bytes_out: 64 * burst,
                    inbound: vec![(SERVER_SENDER, 64)],
                }
            })
            .collect();
        for policy in [
            AggregationPolicy::FullSync,
            AggregationPolicy::Deadline { factor },
            AggregationPolicy::Buffered { factor, decay: 0.5 },
            AggregationPolicy::Async { min_updates: quorum },
        ] {
            let schedule = EventDrivenRuntime::new(&profiles, &work);
            let mut shards = ShardRoundPolicies::new(&policy, &schedule, &topo);
            let stats = schedule.run(|t, ev| shards.on_event(t, ev));
            let late = shard_late_with_staleness(&policy, &stats, &topo);
            prop_assert_eq!(shards.verdicts(), late.clone(), "{} on {} shards", policy.name(), k);
            if !late.is_empty() {
                let last_awaited = stats
                    .update_delivery_secs
                    .iter()
                    .enumerate()
                    .filter(|(d, _)| !late.iter().any(|&(l, _)| l as usize == *d))
                    .filter_map(|(_, t)| *t)
                    .max_by(f64::total_cmp)
                    .expect("a round with late updates keeps at least its median");
                prop_assert_eq!(stats.makespan_secs.to_bits(), last_awaited.to_bits());
            }
        }
    }
}
