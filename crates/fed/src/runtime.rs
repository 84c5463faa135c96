//! The synchronous federated round engine.
//!
//! Lumos "is a synchronized federated framework that operates in rounds and
//! has to receive all the required updates to start the next round"
//! (§IV-B). The engine owns the network ledger, the fleet's prices and the
//! run's one in-flight queue — every update that arrives in a later round
//! waits there with its silenced sends ([`Runtime::carry`]), and both come
//! out together ([`Runtime::advance_carried`]) — and keeps no log: each
//! round's ledger and timing scalars are returned by value to the caller,
//! who records them. It does
//! not simulate: the caller runs the round's one `lumos-sim` schedule —
//! over [`ledger_work`], which prices a ledger window per destination (the
//! `(sender → receiver)` deltas become per-sender inbound contributions, so
//! a receiver's drain waits for its actual senders instead of being
//! self-timed from its own burst) — and hands [`Runtime::end_epoch`] the
//! finished statistics.

use lumos_sim::{DeviceProfile, DeviceWork, EpochStats, STALENESS_CAP};
use lumos_topo::{tier_timing, tier_timing_failover, Topology};

use crate::clock::{epoch_makespan, epoch_mean_cost, CostModel};
use crate::network::{NetworkSnapshot, SimNetwork};

/// Price multiplier for tree nodes hosted on a currently-unavailable
/// device: its retained nodes still exist, but every round it sits out
/// stalls that work until rejoin. (Pricing absent devices at their nominal
/// rate was the stale-cost bug — a churned fleet priced bit-identically to
/// the frozen initial fleet.)
pub const UNAVAILABLE_COST_FACTOR: u64 = 4;

/// Builds the per-device [`DeviceWork`] of the ledger window `snap` opened:
/// compute from the tree-node counts, outbound traffic from the per-device
/// ledger deltas, and the inbound side as the per-sender `(sender, bytes)`
/// contributions of the window's message log. A sharded network logs the
/// same window a flat one does, so a hierarchical round is priced per
/// sender too.
///
/// # Panics
/// Panics if `device_tree_nodes` does not have exactly one entry per
/// device. (The old zip-based construction silently truncated on a length
/// mismatch, quietly mis-timing every epoch after a bad caller.)
pub fn ledger_work(
    network: &SimNetwork,
    snap: &NetworkSnapshot,
    device_tree_nodes: &[usize],
    layers: usize,
) -> Vec<DeviceWork> {
    assert_eq!(
        device_tree_nodes.len(),
        network.num_devices(),
        "one tree-node count per device: got {} counts for {} devices — \
         a mismatched workload vector would silently truncate the epoch's work",
        device_tree_nodes.len(),
        network.num_devices(),
    );
    let sent = network.sent_since(snap);
    let bytes_out = network.bytes_sent_since(snap);
    let inbound = network.received_matrix_since(snap);
    device_tree_nodes
        .iter()
        .zip(inbound)
        .enumerate()
        .map(|(d, (&nodes, from))| DeviceWork {
            compute_units: (nodes * layers) as f64,
            messages_out: sent[d],
            bytes_out: bytes_out[d],
            inbound: from,
        })
        .collect()
}

/// The aggregator tier of a hierarchical topology, as the runtime prices
/// it: which shard each device reports to, the profile every edge
/// aggregator uploads with, and the wire size of one pooled partial.
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// The device → aggregator partition.
    pub topology: Topology,
    /// Profile the aggregators upload to the server with.
    pub aggregator: DeviceProfile,
    /// Bytes of one aggregator partial (the server's per-round inbound
    /// traffic is `aggregators × partial_bytes`).
    pub partial_bytes: u64,
}

/// What closing a round yields ([`Runtime::end_epoch`]): the ledger
/// window's totals and its price under the straggler cost model. Scalars
/// only, returned by value — the runtime keeps no copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Messages on the ledger during this epoch.
    pub total_messages: u64,
    /// Bytes on the ledger during this epoch.
    pub total_bytes: u64,
    /// Average messages per device during this epoch.
    pub avg_messages_per_device: f64,
    /// Modeled makespan (abstract units, straggler-dominated).
    pub makespan: f64,
    /// Modeled mean device cost.
    pub mean_cost: f64,
    /// The round's simulation, tier-extended (present when the caller
    /// simulated the round; prices each device by its own capabilities
    /// instead of the global [`CostModel`]).
    pub sim: Option<SimEpoch>,
}

/// One round's [`EpochStats`] as the round closed on them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEpoch {
    /// Virtual seconds until the round closed: the simulated makespan,
    /// extended to the last aggregator partial's arrival under a tier.
    pub makespan_secs: f64,
    /// The share of `makespan_secs` the aggregator → server hop added
    /// (0 without a tier).
    pub tier2_secs: f64,
    /// The device whose event closed the device tier (None if nothing ran).
    pub straggler: Option<u32>,
    /// Mean fraction of `makespan_secs` the active devices spent busy.
    pub utilization: f64,
}

/// One carried batch: the updates one round found `staleness` rounds late,
/// with the sends silenced on that round's ledger. Both land
/// `rounds_remaining` rounds from now.
#[derive(Debug, Clone)]
struct Carried {
    staleness: u32,
    rounds_remaining: u32,
    devices: Vec<u32>,
    /// `(from, to, bytes)`; `to == SimNetwork::SERVER` marks device→server.
    sends: Vec<(u32, u32, u64)>,
}

/// Synchronous round engine owning the network.
#[derive(Debug)]
pub struct Runtime {
    /// The simulated network.
    pub network: SimNetwork,
    cost_model: CostModel,
    profiles: Option<Vec<DeviceProfile>>,
    /// The open epoch's ledger snapshot.
    current: Option<NetworkSnapshot>,
    carried: Vec<Carried>,
    tier: Option<TierSpec>,
}

impl Runtime {
    /// Creates a runtime for `n` devices priced by the global cost model.
    pub fn new(n: usize, cost_model: CostModel) -> Self {
        Self {
            network: SimNetwork::new(n),
            cost_model,
            profiles: None,
            current: None,
            carried: Vec::new(),
            tier: None,
        }
    }

    /// Installs the aggregator tier, before the first round: the network
    /// becomes a sharded ledger over the tier's partition, so every
    /// server-bound send lands at the sender's aggregator; every epoch
    /// closes by shipping the serving aggregators' partials
    /// ([`SimNetwork::send_partials`]); and subsequent simulated epochs
    /// compose aggregator → server delivery on top of the device-tier
    /// schedule, extending each epoch's makespan to the last aggregator
    /// partial's arrival. Only meaningful with ≥ 2 aggregators — the trainer
    /// never installs a single-aggregator tier, because that resolves to the
    /// flat topology (`TopologyConfig::effective`).
    ///
    /// # Panics
    /// Panics if the topology's fleet size disagrees with the network's.
    pub fn set_tier(&mut self, tier: TierSpec) {
        assert_eq!(
            tier.topology.num_devices(),
            self.network.num_devices(),
            "tier topology and network disagree on fleet size"
        );
        self.network = SimNetwork::new_sharded(tier.topology.shard_vector());
        self.tier = Some(tier);
    }

    /// Installs (or replaces) the device profiles
    /// [`Runtime::node_costs_micros`] prices from. Scenarios with churn call
    /// this every round.
    ///
    /// # Panics
    /// Panics if the profile count does not match the device count.
    pub fn set_profiles(&mut self, profiles: Vec<DeviceProfile>) {
        assert_eq!(
            profiles.len(),
            self.network.num_devices(),
            "one profile per device"
        );
        self.profiles = Some(profiles);
    }

    /// Per-device fixed-point tree-node costs (virtual µs) derived from the
    /// installed profiles — the price vector the `VirtualSecs` balance
    /// objective feeds to the tree constructor. Prices come from the *live*
    /// fleet: a device currently sitting out (churn) costs
    /// [`UNAVAILABLE_COST_FACTOR`] × its nominal price. `None` on the plain
    /// cost-model path, where every device is interchangeable and the
    /// node-count objective is exact.
    pub fn node_costs_micros(&self, layers: usize, embedding_bytes: u64) -> Option<Vec<u64>> {
        self.profiles.as_ref().map(|ps| {
            ps.iter()
                .map(|p| {
                    let nominal = p.micros_per_tree_node(layers, embedding_bytes);
                    if p.available {
                        nominal
                    } else {
                        nominal.saturating_mul(UNAVAILABLE_COST_FACTOR)
                    }
                })
                .collect()
        })
    }

    /// Begins an epoch: snapshots the ledger.
    ///
    /// # Panics
    /// Panics if an epoch is already open.
    pub fn begin_epoch(&mut self) {
        assert!(self.current.is_none(), "previous epoch still open");
        self.current = Some(self.network.snapshot());
    }

    /// Ends the open epoch — the one way a round closes — and returns its
    /// record. Under a tier, the serving aggregators first ship their
    /// partials. Prices the ledger window under the straggler cost model
    /// (`device_tree_nodes` and `layers`; traffic is read from the ledger's
    /// per-device deltas) and extends `sim` — the round's event-driven
    /// simulation over what its devices attempted; `None` for the plain
    /// cost-model epoch — with the aggregator tier.
    ///
    /// # Panics
    /// Panics if no epoch is open, or if `device_tree_nodes` does not have
    /// one entry per device.
    pub fn end_epoch(
        &mut self,
        device_tree_nodes: &[usize],
        layers: usize,
        sim: Option<&EpochStats>,
    ) -> EpochRecord {
        let snap = self.current.take().expect("no epoch open");
        if let Some(tier) = &self.tier {
            self.network.send_partials(tier.partial_bytes);
        }
        self.network.round();
        assert_eq!(
            device_tree_nodes.len(),
            self.network.num_devices(),
            "one tree-node count per device: got {} counts for {} devices — \
             a mismatched workload vector would silently truncate the epoch's costs",
            device_tree_nodes.len(),
            self.network.num_devices(),
        );
        let sent = self.network.sent_since(&snap);
        let costs: Vec<f64> = device_tree_nodes
            .iter()
            .zip(&sent)
            .map(|(&nodes, &msgs)| self.cost_model.device_cost(nodes, layers, msgs))
            .collect();
        let total_messages = self.network.total_messages() - snap.total_messages;
        let n = self.network.num_devices().max(1) as f64;
        let sim = sim.map(|stats| {
            let mut makespan_secs = stats.makespan_secs;
            if let Some(tier) = &self.tier {
                // Hierarchical: the round closes when the last aggregator
                // partial lands at the server, not when the last device-tier
                // event fires. Under an aggregator outage the re-homed shards
                // fold into their successors before the hop is priced.
                let t2 = match self.network.rehome_map() {
                    Some(map) => tier_timing_failover(
                        stats,
                        &tier.topology,
                        &tier.aggregator,
                        tier.partial_bytes,
                        map,
                    ),
                    None => {
                        tier_timing(stats, &tier.topology, &tier.aggregator, tier.partial_bytes)
                    }
                };
                makespan_secs = makespan_secs.max(t2.server_makespan_secs);
            }
            SimEpoch {
                makespan_secs,
                tier2_secs: makespan_secs - stats.makespan_secs,
                straggler: stats.straggler,
                utilization: stats.mean_utilization_over(makespan_secs),
            }
        });
        EpochRecord {
            total_messages,
            total_bytes: self.network.total_bytes() - snap.total_bytes,
            avg_messages_per_device: total_messages as f64 / n,
            makespan: epoch_makespan(&costs),
            mean_cost: epoch_mean_cost(&costs),
            sim,
        }
    }

    /// Carries one batch of updates — the cuts of a carrying policy, the
    /// async quorum's overflow, uploads that ran out their retry budget —
    /// to the round `staleness` rounds on, clamped to
    /// `1..=`[`STALENESS_CAP`]: an update that is late at all waits a
    /// round, and none waits unboundedly. `sends` are the batch's messages,
    /// silenced on this round's ledger (`to == SimNetwork::SERVER` marks
    /// device→server): traffic is accounted in the round where the stale
    /// update arrives, not the round whose barrier it missed. An empty
    /// batch is dropped.
    pub fn carry(&mut self, staleness: u32, devices: Vec<u32>, sends: Vec<(u32, u32, u64)>) {
        if devices.is_empty() && sends.is_empty() {
            return;
        }
        let staleness = staleness.clamp(1, STALENESS_CAP);
        self.carried.push(Carried {
            staleness,
            rounds_remaining: staleness,
            devices,
            sends,
        });
    }

    /// Ages the queue by one round: every batch arriving now has its sends
    /// injected into the ledger — through [`SimNetwork::send`], so a
    /// device→server send takes this round's tier as a live upload does —
    /// and its updates returned as `(device, staleness)`, in the order they
    /// were carried. Call exactly once per round, inside the open epoch —
    /// so the traffic lands in its ledger window — and before carrying that
    /// round's late updates. The round's simulation runs on what the fleet
    /// attempts this round, so carried-in bytes lengthen nobody's virtual
    /// burst.
    pub fn advance_carried(&mut self) -> Vec<(u32, u32)> {
        let mut arrived = Vec::new();
        let network = &mut self.network;
        self.carried.retain_mut(|batch| {
            batch.rounds_remaining -= 1;
            if batch.rounds_remaining > 0 {
                return true;
            }
            for &(from, to, bytes) in &batch.sends {
                network.send(from, to, bytes);
            }
            arrived.extend(batch.devices.iter().map(|&d| (d, batch.staleness)));
            false
        });
        arrived
    }

    /// Carried updates still waiting.
    pub fn in_flight(&self) -> usize {
        self.carried.iter().map(|batch| batch.devices.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::EdgeTraffic;
    use lumos_sim::{AggregationPolicy, EventDrivenRuntime, RoundPolicy};

    fn profiled(profiles: Vec<DeviceProfile>) -> Runtime {
        let mut rt = Runtime::new(profiles.len(), CostModel::default());
        rt.set_profiles(profiles);
        rt
    }

    /// The round's one simulation, as the trainer runs it: the open epoch's
    /// ledger window priced on the installed fleet (2 layers) and run under
    /// `policy`'s handler. Returns the statistics and the verdicts.
    fn simulate(
        rt: &Runtime,
        nodes: &[usize],
        policy: AggregationPolicy,
    ) -> (EpochStats, Vec<(u32, u32)>) {
        let snap = rt.current.as_ref().expect("an epoch is open");
        let work = ledger_work(&rt.network, snap, nodes, 2);
        let profiles = rt.profiles.as_ref().expect("profiles installed");
        let schedule = EventDrivenRuntime::new(profiles, &work);
        let mut round = RoundPolicy::new(&policy, &schedule);
        let stats = schedule.run(|t, ev| round.on_event(t, ev));
        (stats, round.verdicts())
    }

    /// Closes the open epoch on its own barrier simulation.
    fn end_simulated(rt: &mut Runtime, nodes: &[usize]) -> (EpochStats, EpochRecord) {
        let (stats, _) = simulate(rt, nodes, AggregationPolicy::FullSync);
        let rec = rt.end_epoch(nodes, 2, Some(&stats));
        (stats, rec)
    }

    #[test]
    fn epoch_lifecycle_records_messages_and_times() {
        let mut rt = Runtime::new(3, CostModel::default());
        rt.begin_epoch();
        rt.network.send(0, 1, 10);
        rt.network.send(1, 2, 10);
        rt.network.send(2, 0, 10);
        let rec = rt.end_epoch(&[4, 7, 10], 2, None);
        assert_eq!(rec.total_messages, 3);
        assert_eq!(rec.total_bytes, 30);
        assert!((rec.avg_messages_per_device - 1.0).abs() < 1e-12);
        assert!(rec.sim.is_none());
        // Straggler: device 2 with 10 tree nodes dominates.
        let m = CostModel::default();
        assert!((rec.makespan - m.device_cost(10, 2, 1)).abs() < 1e-9);
        assert_eq!(rt.network.rounds(), 1);
    }

    #[test]
    fn every_epoch_is_its_own_ledger_window() {
        // The runtime remembers nothing between rounds: equal traffic in
        // each window closes on equal records, whatever came before.
        let mut rt = Runtime::new(2, CostModel::default());
        let records: Vec<EpochRecord> = (0..3)
            .map(|_| {
                rt.begin_epoch();
                rt.network.send(0, 1, 1);
                rt.end_epoch(&[3, 3], 2, None)
            })
            .collect();
        assert!((records[0].avg_messages_per_device - 0.5).abs() < 1e-12);
        assert!(records[0].makespan > 0.0);
        assert!(records.iter().all(|r| *r == records[0]));
    }

    #[test]
    fn cost_model_path_records_no_sim() {
        let mut rt = Runtime::new(2, CostModel::default());
        rt.begin_epoch();
        assert!(rt.end_epoch(&[3, 3], 2, None).sim.is_none());
    }

    #[test]
    fn profile_path_prices_devices_individually() {
        // Two equal workloads, but device 1 computes 100× slower: the
        // global cost model sees identical devices while the profile path
        // names device 1 the straggler.
        let mut profiles = vec![DeviceProfile::baseline(); 2];
        profiles[1].compute_rate /= 100.0;
        let mut rt = profiled(profiles);
        rt.begin_epoch();
        rt.network.send(0, 1, 64);
        rt.network.send(1, 0, 64);
        let (sim, rec) = end_simulated(&mut rt, &[10, 10]);
        assert_eq!(sim.straggler, Some(1));
        assert!(sim.busy_secs[1] > sim.busy_secs[0]);
        let recorded = rec.sim.expect("a simulated round records its scalars");
        assert_eq!(recorded.makespan_secs, sim.makespan_secs);
        assert_eq!(recorded.utilization, sim.mean_utilization());
        assert!(recorded.makespan_secs > 0.0);
        assert_eq!(recorded.straggler, Some(1));
        assert!(recorded.utilization > 0.0 && recorded.utilization <= 1.0);
        // The global model still prices both devices identically.
        assert!((rec.makespan - rec.mean_cost).abs() < 1e-12);
        // And the live price vector tells them apart.
        let costs = rt.node_costs_micros(2, 64).expect("profiles installed");
        assert!(costs[1] > costs[0]);
    }

    #[test]
    fn epoch_timing_is_per_destination() {
        // Device 0 is fast; its inbound bytes come from slow device 1. The
        // aggregate ledger used to time device 0's drain off its own burst;
        // the window's per-sender log makes it wait for device 1's delivery.
        let mut profiles = vec![DeviceProfile::baseline(); 2];
        profiles[1].compute_rate /= 1000.0;
        let mut rt = profiled(profiles);
        rt.begin_epoch();
        rt.network.send(1, 0, 4096);
        let (sim, _) = end_simulated(&mut rt, &[10, 10]);
        // Device 1 computes 20 units at 0.1/s = 200s, uploads 1s, latency;
        // device 0's one-second drain can only start after that.
        assert!(sim.makespan_secs > 201.0, "makespan {}", sim.makespan_secs);
        assert_eq!(sim.straggler, Some(0), "the waiting receiver closes");
        // Device 0's own critical path is tiny: almost all of its epoch is
        // the wait for its sender.
        assert!(sim.busy_secs[0] < 2.0);
        assert!(sim.idle_secs[0] > 199.0);
    }

    #[test]
    fn deadline_drops_shorten_the_barrier() {
        let mut profiles = vec![DeviceProfile::baseline(); 4];
        profiles[3].compute_rate /= 500.0;
        let run = |policy: AggregationPolicy| {
            let mut rt = profiled(profiles.clone());
            rt.begin_epoch();
            for d in 0..4 {
                rt.network.send_to_server(d, 64);
            }
            let (stats, verdicts) = simulate(&rt, &[5, 5, 5, 5], policy);
            let late: Vec<u32> = verdicts.iter().map(|&(d, _)| d).collect();
            let rec = rt.end_epoch(&[5, 5, 5, 5], 2, Some(&stats));
            (stats, late, rec)
        };
        let (fs, full_late, _) = run(AggregationPolicy::FullSync);
        let (ds, late, rec) = run(AggregationPolicy::Deadline { factor: 2.0 });
        assert!(full_late.is_empty());
        assert_eq!(late, vec![3]);
        assert!(
            ds.makespan_secs < fs.makespan_secs / 10.0,
            "dropping the straggler must shorten the barrier: {} vs {}",
            ds.makespan_secs,
            fs.makespan_secs
        );
        assert_eq!(rec.sim.unwrap().makespan_secs, ds.makespan_secs);
        // The late device is priced on what it attempted: it computed, it
        // counts as active, and its busy time stops at the close.
        assert_eq!(ds.active_devices, 4);
        assert_eq!(ds.busy_secs[3], ds.makespan_secs);
        assert_eq!(fs.active_devices, 4);
    }

    #[test]
    fn async_quorum_closes_the_round_before_the_straggler() {
        let mut profiles = vec![DeviceProfile::baseline(); 4];
        profiles[3].compute_rate /= 500.0;
        let open = || {
            let mut rt = profiled(profiles.clone());
            rt.begin_epoch();
            for d in 0..4 {
                rt.network.send_to_server(d, 64);
            }
            rt
        };
        let (fs, _) = end_simulated(&mut open(), &[5, 5, 5, 5]);

        // Quorum of 3: the round closes at the third landing, long before
        // the straggler's, which is carried.
        let mut rt = open();
        let quorum = AggregationPolicy::Async { min_updates: 3 };
        let (qs, carried) = simulate(&rt, &[5, 5, 5, 5], quorum);
        assert_eq!(carried, vec![(3, 1)]);
        let rec = rt.end_epoch(&[5, 5, 5, 5], 2, Some(&qs));
        assert!(
            qs.makespan_secs < fs.makespan_secs / 10.0,
            "the quorum must close before the straggler: {} vs {}",
            qs.makespan_secs,
            fs.makespan_secs
        );
        assert_eq!(rec.sim.unwrap().makespan_secs, qs.makespan_secs);
        assert_eq!(qs.active_devices, 4, "everyone still computed");
    }

    #[test]
    fn tiered_epochs_extend_the_makespan_to_the_last_partial() {
        let profiles = vec![DeviceProfile::baseline(); 4];
        let run = |tier: bool| {
            let mut rt = profiled(profiles.clone());
            if tier {
                rt.set_tier(TierSpec {
                    topology: Topology::contiguous(4, 2),
                    aggregator: DeviceProfile::baseline(),
                    partial_bytes: 64,
                });
            }
            rt.begin_epoch();
            for d in 0..4 {
                rt.network.send(d, SimNetwork::SERVER, 64);
            }
            let sim = end_simulated(&mut rt, &[5, 5, 5, 5]).1.sim.unwrap();
            (
                sim.makespan_secs,
                sim.tier2_secs,
                rt.network.server_received(),
            )
        };
        let (flat, flat_t2, flat_heard) = run(false);
        let (tiered, t2, tiered_heard) = run(true);
        assert_eq!(flat_heard, 4, "flat: the server hears every device");
        assert_eq!(tiered_heard, 2, "tiered: one partial per aggregator");
        assert_eq!(flat_t2, 0.0, "flat runs pay no tier-2 time");
        assert!(t2 > 0.0, "the aggregator hop must cost virtual time");
        assert!(
            tiered > flat,
            "tiered makespan {tiered} must extend past the device tier {flat}"
        );
        assert!((tiered - (flat + t2)).abs() < 1e-9);
    }

    #[test]
    fn sharded_ledger_work_is_per_sender_like_flat() {
        let window = |mut net: SimNetwork| {
            let snap = net.snapshot();
            net.send(0, 2, 100);
            net.send(1, SimNetwork::SERVER, 64);
            ledger_work(&net, &snap, &[3, 3, 3], 2)
        };
        let work = window(SimNetwork::new_sharded(vec![0, 0, 1]));
        assert_eq!(work[2].inbound, vec![(0, 100)]);
        assert_eq!(work[1].messages_out, 1);
        assert_eq!(work[1].bytes_out, 64);
        assert_eq!(work, window(SimNetwork::new(3)));
    }

    #[test]
    #[should_panic(expected = "disagree on fleet size")]
    fn mismatched_tier_panics() {
        let mut rt = Runtime::new(3, CostModel::default());
        rt.set_tier(TierSpec {
            topology: Topology::contiguous(4, 2),
            aggregator: DeviceProfile::baseline(),
            partial_bytes: 64,
        });
    }

    #[test]
    fn node_costs_follow_profiles() {
        let mut rt = Runtime::new(2, CostModel::default());
        assert_eq!(rt.node_costs_micros(2, 64), None);
        let mut profiles = vec![DeviceProfile::baseline(); 2];
        profiles[1].compute_rate /= 10.0;
        rt.set_profiles(profiles.clone());
        let costs = rt.node_costs_micros(2, 64).expect("profiles installed");
        assert_eq!(costs.len(), 2);
        assert_eq!(costs[0], profiles[0].micros_per_tree_node(2, 64));
        assert!(costs[1] > costs[0], "slower device must cost more µs/node");
    }

    #[test]
    fn churned_fleet_reprices_instead_of_staying_frozen() {
        // Regression for the stale-cost bug: costs were priced once from
        // the initial fleet, so a fleet whose availability churned kept the
        // frozen round-0 prices. Live pricing must differ.
        let profiles = vec![DeviceProfile::baseline(); 3];
        let mut rt = profiled(profiles.clone());
        let frozen = rt.node_costs_micros(2, 64).unwrap();
        // Churn: device 1 drops out before the next round.
        let mut churned = profiles.clone();
        churned[1].available = false;
        rt.set_profiles(churned);
        let live = rt.node_costs_micros(2, 64).unwrap();
        assert_ne!(live, frozen, "churned availability must re-price");
        assert_eq!(live[1], frozen[1] * UNAVAILABLE_COST_FACTOR);
        assert_eq!(live[0], frozen[0]);
        // Rejoin restores the nominal price.
        rt.set_profiles(profiles);
        assert_eq!(rt.node_costs_micros(2, 64).unwrap(), frozen);
    }

    #[test]
    fn profile_epochs_are_deterministic() {
        let run = || {
            let mut profiles = vec![DeviceProfile::baseline(); 3];
            profiles[2].uplink_bytes_per_sec /= 7.0;
            let mut rt = profiled(profiles);
            (0..4)
                .map(|_| {
                    rt.begin_epoch();
                    rt.network.send(0, 1, 100);
                    rt.network.send(2, 0, 300);
                    let sim = end_simulated(&mut rt, &[5, 6, 7]).1.sim.unwrap();
                    (sim.makespan_secs.to_bits(), sim.straggler)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// One round of `rt` with nothing live on it: the arrivals and the
    /// messages that landed with them.
    fn carried_round(rt: &mut Runtime) -> (Vec<(u32, u32)>, u64) {
        let n = rt.network.num_devices();
        rt.begin_epoch();
        let arrived = rt.advance_carried();
        (arrived, rt.end_epoch(&vec![1; n], 2, None).total_messages)
    }

    #[test]
    fn deferred_sends_land_in_the_arrival_round() {
        let mut rt = Runtime::new(4, CostModel::default());
        // Round 0: device 2 is one round late, device 3 two; each carries
        // its own silenced send.
        rt.begin_epoch();
        assert!(rt.advance_carried().is_empty());
        rt.carry(1, vec![2], vec![(2, 0, 64)]);
        rt.carry(2, vec![3], vec![(3, SimNetwork::SERVER, 64)]);
        assert_eq!(rt.in_flight(), 2);
        let r0 = rt.end_epoch(&[1, 1, 1, 1], 2, None).total_messages;
        assert_eq!(r0, 0, "carried traffic must not land early");
        // Round 1: the one-round update arrives, its send with it.
        assert_eq!(carried_round(&mut rt), (vec![(2, 1)], 1));
        assert_eq!(rt.in_flight(), 1);
        // Round 2: the server-bound message arrives with device 3's update.
        assert_eq!(carried_round(&mut rt), (vec![(3, 2)], 1));
        // Nothing is left to arrive.
        assert_eq!(rt.in_flight(), 0);
        assert_eq!(carried_round(&mut rt), (vec![], 0));
    }

    #[test]
    fn carried_updates_arrive_in_the_order_they_were_carried() {
        // Two updates of one device landing in the same round both arrive —
        // the earlier-carried first, which fixes the order their POOL
        // weights are summed in.
        let mut rt = Runtime::new(2, CostModel::default());
        rt.carry(2, vec![0, 1], Vec::new());
        assert!(carried_round(&mut rt).0.is_empty());
        rt.carry(1, vec![0], Vec::new());
        assert_eq!(carried_round(&mut rt).0, vec![(0, 2), (1, 2), (0, 1)]);
    }

    #[test]
    fn an_update_and_its_sends_land_together_at_every_staleness() {
        // The clamp is one rule for both halves of a batch: a zero
        // staleness waits one round, one past the cap waits the cap.
        for staleness in 0..2 * STALENESS_CAP {
            let mut rt = Runtime::new(2, CostModel::default());
            rt.carry(
                staleness,
                vec![1],
                vec![(1, 0, 8), (1, SimNetwork::SERVER, 8)],
            );
            let due = staleness.clamp(1, STALENESS_CAP);
            for _ in 1..due {
                assert_eq!(carried_round(&mut rt), (vec![], 0), "s = {staleness}");
            }
            assert_eq!(carried_round(&mut rt), (vec![(1, due)], 2));
            assert_eq!(rt.in_flight(), 0);
        }
    }

    #[test]
    fn a_carried_upload_lands_through_the_aggregator_tier() {
        // Regression: a carried upload was re-injected with
        // `send_to_server`, so on a sharded network the server booked a
        // device message and no shard tallied the update.
        let mut rt = Runtime::new(4, CostModel::default());
        rt.set_tier(TierSpec {
            topology: Topology::contiguous(4, 2),
            aggregator: DeviceProfile::baseline(),
            partial_bytes: 64,
        });
        rt.carry(1, vec![0], vec![(0, SimNetwork::SERVER, 64)]);
        rt.begin_epoch();
        // Aggregator 0 is out in the arrival round: its successor serves,
        // and ships the round's one partial.
        rt.network.set_rehome(Some(vec![1, 1]));
        assert_eq!(rt.advance_carried(), vec![(0, 1)]);
        let rec = rt.end_epoch(&[1; 4], 2, None);
        let net = &rt.network;
        let edge = |messages, bytes| EdgeTraffic { messages, bytes };
        assert_eq!(net.server_received(), 1, "the server hears partials only");
        assert_eq!(net.server_bytes_received(), 64);
        assert_eq!(net.shard_up(0), EdgeTraffic::default());
        assert_eq!(net.shard_up(1), edge(1, 64));
        assert_eq!(net.shard_down(0), EdgeTraffic::default());
        assert_eq!(net.shard_down(1), edge(1, 64));
        // The device paid for its upload exactly as before.
        assert_eq!(net.device(0).sent, 1);
        assert_eq!(net.device(0).bytes_sent, 64);
        assert_eq!(rec.total_messages, 1);
    }

    #[test]
    fn empty_deferral_is_dropped() {
        let mut rt = Runtime::new(2, CostModel::default());
        rt.carry(3, Vec::new(), Vec::new());
        assert!(rt.carried.is_empty());
    }

    #[test]
    #[should_panic]
    fn mismatched_profile_count_panics() {
        Runtime::new(3, CostModel::default()).set_profiles(vec![DeviceProfile::baseline(); 2]);
    }

    #[test]
    #[should_panic(expected = "one tree-node count per device")]
    fn mismatched_workload_vector_panics_instead_of_truncating() {
        // Regression: the zip-based epoch accounting silently dropped the
        // surplus devices when the workload vector was too short.
        let mut rt = Runtime::new(3, CostModel::default());
        rt.begin_epoch();
        rt.end_epoch(&[4, 7], 2, None);
    }

    #[test]
    #[should_panic(expected = "one tree-node count per device")]
    fn ledger_work_rejects_mismatched_lengths() {
        let mut net = SimNetwork::new(3);
        let snap = net.snapshot();
        ledger_work(&net, &snap, &[1, 2, 3, 4], 2);
    }

    #[test]
    #[should_panic]
    fn nested_epochs_panic() {
        let mut rt = Runtime::new(1, CostModel::default());
        rt.begin_epoch();
        rt.begin_epoch();
    }

    #[test]
    #[should_panic]
    fn end_without_begin_panics() {
        let mut rt = Runtime::new(1, CostModel::default());
        rt.end_epoch(&[1], 1, None);
    }
}
