//! Per-shard application of the aggregation deadline policy.

use lumos_sim::{
    AggregationPolicy, Control, EpochStats, EventDrivenRuntime, RoundPolicy, SimEvent, VirtualTime,
};

use crate::topology::Topology;

/// Applies `policy.late_with_staleness` independently per shard: each
/// aggregator measures its own members' delivery times against its own
/// local median deadline, exactly as the server does globally in the
/// flat path. Returns the union of every shard's `(device, staleness)`
/// verdicts, sorted by device id.
///
/// With a single shard the mask keeps every entry, so the result is
/// bit-identical to calling the policy on `stats` directly (pinned by
/// `single_shard_matches_global_policy` below).
/// [`AggregationPolicy::Async`] is also global regardless of sharding: the
/// quorum is the *server's* round-closure criterion — it counts landings
/// across the whole fleet, not per aggregator.
pub fn shard_late_with_staleness(
    policy: &AggregationPolicy,
    stats: &EpochStats,
    topo: &Topology,
) -> Vec<(u32, u32)> {
    assert_eq!(
        stats.update_delivery_secs.len(),
        topo.num_devices(),
        "topology and epoch stats disagree on fleet size"
    );
    if topo.num_aggregators() == 1 || matches!(policy, AggregationPolicy::Async { .. }) {
        return policy.late_with_staleness(stats);
    }
    // One reusable scratch copy; per shard only the members' delivery
    // entries survive, so the policy's median is the shard-local one.
    let mut scratch = stats.clone();
    let mut late = Vec::new();
    for (_, range) in topo.ranges() {
        scratch
            .update_delivery_secs
            .iter_mut()
            .for_each(|t| *t = None);
        let lo = range.start as usize;
        let hi = range.end as usize;
        scratch.update_delivery_secs[lo..hi].copy_from_slice(&stats.update_delivery_secs[lo..hi]);
        late.extend(policy.late_with_staleness(&scratch));
    }
    late.sort_unstable_by_key(|&(d, _)| d);
    late
}

/// The sharded use of [`RoundPolicy`]: one arrival-time handler over the
/// topology's shards, cutting each aggregator's members against their
/// shard-local median and closing the round when the last update any shard
/// still waits for lands. Its verdicts equal [`shard_late_with_staleness`]
/// on the finished round (property-tested in `tests/topo_properties.rs`).
///
/// [`AggregationPolicy::Async`] stays one *global* quorum (it belongs to
/// the server, not to any aggregator), matching the post-hoc path above.
pub struct ShardRoundPolicies(RoundPolicy);

impl ShardRoundPolicies {
    /// Builds the handler for one scheduled epoch.
    ///
    /// # Panics
    /// Panics if the schedule and topology disagree on fleet size, or if
    /// the policy's parameters are invalid.
    pub fn new(policy: &AggregationPolicy, schedule: &EventDrivenRuntime, topo: &Topology) -> Self {
        assert_eq!(
            schedule.update_delivery_secs().len(),
            topo.num_devices(),
            "topology and schedule disagree on fleet size"
        );
        let shards = topo.ranges().map(|(_, members)| members);
        Self(RoundPolicy::grouped(policy, schedule, shards))
    }

    /// Feeds one event through the handler.
    pub fn on_event(&mut self, t: VirtualTime, ev: &SimEvent) -> Control {
        self.0.on_event(t, ev)
    }

    /// Every shard's `(device, staleness)` verdicts, sorted by device id —
    /// the same pairs [`shard_late_with_staleness`] computes post hoc.
    pub fn verdicts(self) -> Vec<(u32, u32)> {
        self.0.verdicts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with_deliveries(times: Vec<Option<f64>>) -> EpochStats {
        let n = times.len();
        EpochStats {
            makespan_secs: times.iter().flatten().fold(0.0f64, |a, &b| a.max(b)),
            busy_secs: vec![0.0; n],
            idle_secs: vec![0.0; n],
            update_delivery_secs: times,
            straggler: None,
            active_devices: n,
            events: 0,
        }
    }

    #[test]
    fn single_shard_matches_global_policy() {
        let stats = stats_with_deliveries(vec![
            Some(1.0),
            Some(2.0),
            Some(40.0),
            Some(1.5),
            None,
            Some(3.0),
        ]);
        let policy = AggregationPolicy::Deadline { factor: 2.0 };
        let topo = Topology::contiguous(6, 1);
        assert_eq!(
            shard_late_with_staleness(&policy, &stats, &topo),
            policy.late_with_staleness(&stats)
        );
    }

    #[test]
    fn shards_use_local_medians() {
        // Shard 0 is uniformly slow, shard 1 uniformly fast. A global
        // 2× median deadline would drop all of shard 0; shard-local
        // deadlines drop nobody — each shard is internally homogeneous.
        let stats = stats_with_deliveries(vec![
            Some(100.0),
            Some(110.0),
            Some(105.0),
            Some(1.0),
            Some(1.1),
            Some(1.05),
        ]);
        let policy = AggregationPolicy::Deadline { factor: 2.0 };
        let global = policy.late_with_staleness(&stats);
        assert!(
            !global.is_empty(),
            "global deadline should drop the slow half"
        );
        let topo = Topology::contiguous(6, 2);
        let sharded = shard_late_with_staleness(&policy, &stats, &topo);
        assert!(
            sharded.is_empty(),
            "local deadlines keep homogeneous shards"
        );
    }

    #[test]
    fn sharded_verdicts_are_sorted_and_deduplicated_by_construction() {
        let stats = stats_with_deliveries(vec![
            Some(1.0),
            Some(50.0),
            Some(1.0),
            Some(60.0),
            Some(1.0),
            Some(1.0),
        ]);
        let policy = AggregationPolicy::Deadline { factor: 2.0 };
        let topo = Topology::contiguous(6, 3);
        let late = shard_late_with_staleness(&policy, &stats, &topo);
        assert!(late.windows(2).all(|w| w[0].0 < w[1].0));
        for &(d, s) in &late {
            assert!(d == 1 || d == 3, "only the per-shard stragglers drop");
            assert!(s >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "disagree on fleet size")]
    fn fleet_size_mismatch_panics() {
        let stats = stats_with_deliveries(vec![Some(1.0); 4]);
        let topo = Topology::contiguous(6, 2);
        shard_late_with_staleness(&AggregationPolicy::FullSync, &stats, &topo);
    }

    #[test]
    fn async_quorum_is_global_across_shards() {
        // Quorum 4 over 6 devices in 2 shards: the 4 earliest landings
        // pool wherever they live; the 2 slowest are carried — sharding
        // must not give each aggregator its own quorum.
        let stats = stats_with_deliveries(vec![
            Some(1.0),
            Some(2.0),
            Some(90.0),
            Some(3.0),
            Some(4.0),
            Some(80.0),
        ]);
        let policy = AggregationPolicy::Async { min_updates: 4 };
        let topo = Topology::contiguous(6, 2);
        let sharded = shard_late_with_staleness(&policy, &stats, &topo);
        assert_eq!(sharded, vec![(2, 1), (5, 1)]);
        assert_eq!(sharded, policy.late_with_staleness(&stats));
    }

    fn simulated_round() -> (lumos_sim::EventDrivenRuntime, EpochStats) {
        use lumos_sim::{DeviceProfile, DeviceWork};
        let mut profiles = vec![DeviceProfile::baseline(); 6];
        profiles[1].compute_rate /= 60.0;
        profiles[4].compute_rate /= 90.0;
        let work: Vec<DeviceWork> = (0..6)
            .map(|i| DeviceWork {
                compute_units: 100.0 + 10.0 * i as f64,
                messages_out: 1,
                bytes_out: 64,
                inbound: Vec::new(),
            })
            .collect();
        let schedule = EventDrivenRuntime::new(&profiles, &work);
        let stats = lumos_sim::simulate_epoch(&profiles, &work);
        (schedule, stats)
    }

    #[test]
    fn shard_round_policies_match_the_post_hoc_path() {
        // Per-shard arrival-time handlers on a live event stream must
        // produce the exact union shard_late_with_staleness computes from
        // the finished round — for the sharded cut policies and the
        // global async quorum alike.
        for policy in [
            AggregationPolicy::Deadline { factor: 2.0 },
            AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            },
            AggregationPolicy::Async { min_updates: 4 },
            AggregationPolicy::FullSync,
        ] {
            let (schedule, stats) = simulated_round();
            let topo = Topology::contiguous(6, 2);
            let mut shards = ShardRoundPolicies::new(&policy, &schedule, &topo);
            let run_stats = schedule.run(|t, ev| shards.on_event(t, ev));
            assert_eq!(
                shards.verdicts(),
                shard_late_with_staleness(&policy, &stats, &topo),
                "{} sharded handler disagreed with the post-hoc path",
                policy.name()
            );
            if policy == AggregationPolicy::FullSync {
                assert_eq!(run_stats, stats, "barrier run must be untouched");
            }
        }
    }
}
