//! Tier-2 delivery timing, composed on top of a device-tier epoch.
//!
//! The device tier is priced by one `lumos_sim::EventDrivenRuntime` run
//! exactly as in the flat path. The second tier composes on its output: an
//! aggregator's pooled partial is ready when the slowest of its members'
//! updates that made the round lands, then pays the aggregator's own
//! uplink + propagation latency to reach the server. The server's round
//! closes when the last aggregator partial arrives.

use lumos_sim::{DeviceProfile, EpochStats};

use crate::topology::Topology;

/// Tier-2 (aggregator → server) delivery schedule for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TierTiming {
    /// When each aggregator's partial reached the server. `None` when no
    /// member delivered an update this epoch (the aggregator sends
    /// nothing).
    pub aggregator_delivery_secs: Vec<Option<f64>>,
    /// Virtual seconds until the last aggregator partial landed
    /// (0.0 when nothing was delivered at all).
    pub server_makespan_secs: f64,
}

/// Prices the aggregator → server tier for one epoch.
///
/// `aggregator` is the profile every edge aggregator uploads with, and
/// `partial_bytes` the wire size of one pooled partial — the hierarchy's
/// whole point is that the server's inbound traffic is
/// `num_aggregators × partial_bytes` per round, independent of fleet
/// size.
pub fn tier_timing(
    stats: &EpochStats,
    topo: &Topology,
    aggregator: &DeviceProfile,
    partial_bytes: u64,
) -> TierTiming {
    let identity = topo.failover_map(&[]);
    tier_timing_failover(stats, topo, aggregator, partial_bytes, &identity)
}

/// [`tier_timing`] under an aggregator failover: `rehome[k]` is the
/// aggregator actually serving shard `k` this round (the output of
/// [`Topology::failover_map`]). Members of a re-homed shard fold into
/// their *target* aggregator's readiness, the target pays one hop for its
/// merged partial, and the outaged aggregator itself delivers nothing.
/// The identity map is the no-failover round: every shard folds into its
/// own aggregator, in shard order.
///
/// Only updates that landed by the device tier's close
/// (`stats.makespan_secs`) fold. A barrier round ends after its last
/// landing, so there that is every update; a round its policy closed early
/// still carries the late devices' planned deliveries on the schedule, and
/// folding those would put the full barrier back under every cut.
///
/// # Panics
/// Panics on a fleet-size mismatch, a `rehome` map of the wrong length,
/// or a map that routes a shard to an aggregator that is itself re-homed
/// elsewhere (the successor must be healthy).
pub fn tier_timing_failover(
    stats: &EpochStats,
    topo: &Topology,
    aggregator: &DeviceProfile,
    partial_bytes: u64,
    rehome: &[u32],
) -> TierTiming {
    assert_eq!(
        stats.update_delivery_secs.len(),
        topo.num_devices(),
        "topology and epoch stats disagree on fleet size"
    );
    assert_eq!(
        rehome.len(),
        topo.num_aggregators(),
        "failover map and topology disagree on aggregator count"
    );
    let hop = aggregator.upload_secs(partial_bytes) + aggregator.latency_secs;
    // Fold each shard's members into the aggregator that actually serves
    // it; shards are visited in order, so a target's readiness is the max
    // over its own members and every shard re-homed onto it.
    let mut ready: Vec<Option<f64>> = vec![None; topo.num_aggregators()];
    for (shard, range) in topo.ranges() {
        let target = rehome[shard] as usize;
        assert_eq!(
            rehome[target] as usize, target,
            "shard {shard} re-homed to aggregator {target}, which is itself down"
        );
        let lo = range.start as usize;
        let hi = range.end as usize;
        ready[target] = stats.update_delivery_secs[lo..hi]
            .iter()
            .flatten()
            .filter(|&&t| t <= stats.makespan_secs)
            .fold(ready[target], |acc, &t| Some(acc.map_or(t, |a| a.max(t))));
    }
    let mut deliveries = Vec::with_capacity(topo.num_aggregators());
    let mut makespan = 0.0f64;
    for (shard, r) in ready.into_iter().enumerate() {
        // An outaged aggregator (re-homed elsewhere) never uploads, even
        // if a stray fold landed on it.
        let delivery = if rehome[shard] as usize == shard {
            r.map(|t| t + hop)
        } else {
            None
        };
        if let Some(t) = delivery {
            makespan = makespan.max(t);
        }
        deliveries.push(delivery);
    }
    TierTiming {
        aggregator_delivery_secs: deliveries,
        server_makespan_secs: makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(times: Vec<Option<f64>>) -> EpochStats {
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
    fn aggregator_waits_for_its_slowest_member() {
        let s = stats(vec![Some(1.0), Some(5.0), Some(2.0), Some(3.0)]);
        let topo = Topology::contiguous(4, 2);
        let agg = DeviceProfile::baseline();
        let hop = agg.upload_secs(64) + agg.latency_secs;
        let t = tier_timing(&s, &topo, &agg, 64);
        assert_eq!(t.aggregator_delivery_secs[0], Some(5.0 + hop));
        assert_eq!(t.aggregator_delivery_secs[1], Some(3.0 + hop));
        assert_eq!(t.server_makespan_secs, 5.0 + hop);
    }

    #[test]
    fn updates_landing_after_the_close_do_not_hold_their_aggregator() {
        // A policy closed the device tier at 3.0: the 5.0 straggler is
        // still on the schedule, but its aggregator ships without it.
        let mut s = stats(vec![Some(1.0), Some(5.0), Some(2.0), Some(3.0)]);
        s.makespan_secs = 3.0;
        let topo = Topology::contiguous(4, 2);
        let agg = DeviceProfile::baseline();
        let hop = agg.upload_secs(64) + agg.latency_secs;
        let t = tier_timing(&s, &topo, &agg, 64);
        assert_eq!(t.aggregator_delivery_secs[0], Some(1.0 + hop));
        assert_eq!(t.server_makespan_secs, 3.0 + hop);
    }

    #[test]
    fn silent_shard_sends_no_partial() {
        let s = stats(vec![None, None, Some(2.0), Some(1.0)]);
        let topo = Topology::contiguous(4, 2);
        let agg = DeviceProfile::baseline();
        let t = tier_timing(&s, &topo, &agg, 64);
        assert_eq!(t.aggregator_delivery_secs[0], None);
        assert!(t.aggregator_delivery_secs[1].is_some());
        assert!(t.server_makespan_secs > 0.0);
    }

    #[test]
    fn fully_silent_epoch_has_zero_server_makespan() {
        let s = stats(vec![None, None]);
        let topo = Topology::contiguous(2, 2);
        let t = tier_timing(&s, &topo, &DeviceProfile::baseline(), 64);
        assert_eq!(t.server_makespan_secs, 0.0);
        assert!(t.aggregator_delivery_secs.iter().all(Option::is_none));
    }

    #[test]
    fn identity_failover_is_tier_timing_bitwise() {
        let s = stats(vec![
            Some(1.0),
            Some(5.0),
            Some(2.0),
            Some(3.0),
            None,
            Some(4.0),
        ]);
        let topo = Topology::contiguous(6, 3);
        let agg = DeviceProfile::baseline();
        let identity = topo.failover_map(&[]);
        assert_eq!(
            tier_timing_failover(&s, &topo, &agg, 64, &identity),
            tier_timing(&s, &topo, &agg, 64)
        );
    }

    #[test]
    fn failover_folds_the_outaged_shard_into_its_successor() {
        let s = stats(vec![Some(1.0), Some(5.0), Some(2.0), Some(3.0)]);
        let topo = Topology::contiguous(4, 2);
        let agg = DeviceProfile::baseline();
        let hop = agg.upload_secs(64) + agg.latency_secs;
        // Aggregator 0 is down: its members (deliveries 1.0, 5.0) re-home
        // to aggregator 1, which now waits for the merged slowest member.
        let t = tier_timing_failover(&s, &topo, &agg, 64, &topo.failover_map(&[0]));
        assert_eq!(
            t.aggregator_delivery_secs[0], None,
            "down aggregator is silent"
        );
        assert_eq!(t.aggregator_delivery_secs[1], Some(5.0 + hop));
        assert_eq!(t.server_makespan_secs, 5.0 + hop);
    }

    #[test]
    #[should_panic(expected = "itself down")]
    fn rehoming_onto_a_down_aggregator_panics() {
        let s = stats(vec![Some(1.0), Some(2.0)]);
        let topo = Topology::contiguous(2, 2);
        // 0 -> 1 but 1 -> 0: both routes point at a re-homed aggregator.
        tier_timing_failover(&s, &topo, &DeviceProfile::baseline(), 64, &[1, 0]);
    }
}
