//! Simulated inter-device network with per-device and per-message accounting.
//!
//! Figure 8a reports the *average number of inter-device communication
//! rounds per device per epoch*; this ledger records every message the
//! protocols exchange so the harness can reproduce that series exactly.
//! The cumulative per-device tallies answer "how much"; the open window's
//! message log answers "from whom": the per-destination timing schedule
//! needs to know who a device's inbound bytes came from, because the drain
//! cannot start before the slowest of those senders has actually
//! delivered. [`SimNetwork::snapshot`] opens a window, so the log holds one
//! round's sends, never the run's edge history.
//!
//! A hierarchical network is the same ledger with a routing table
//! ([`SimNetwork::new_sharded`]): it logs the same window, and only decides
//! where a server-bound upload lands.

/// The routing table of a sharded network: who each device reports to,
/// this round's failover, and two O(aggregators) tally arrays —
/// device-tier traffic into each shard's aggregator, and each aggregator's
/// partials to the server.
#[derive(Debug, Clone)]
struct AggregatorTier {
    /// Shard (aggregator) each device reports to.
    shard_of: Vec<u32>,
    /// Device → aggregator traffic per shard.
    up: Vec<EdgeTraffic>,
    /// Aggregator → server traffic per shard.
    down: Vec<EdgeTraffic>,
    /// Failover routing for the current round: `rehome[k]` is the
    /// aggregator actually serving shard `k` (`Topology::failover_map`
    /// output). `None` — the default — routes every shard to itself.
    rehome: Option<Vec<u32>>,
}

/// Per-device communication tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceTraffic {
    /// Messages sent by this device.
    pub sent: u64,
    /// Messages received by this device.
    pub received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received (from peers or the server).
    pub bytes_received: u64,
}

/// Tallies of one directed `(sender → receiver)` edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeTraffic {
    /// Messages carried by this edge.
    pub messages: u64,
    /// Payload bytes carried by this edge.
    pub bytes: u64,
}

/// The simulated network connecting `n` devices and a server.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    devices: Vec<DeviceTraffic>,
    /// The open window's device↔device and device↔server messages as
    /// `(from, to, bytes)`, in send order; [`SimNetwork::SERVER`] stands
    /// in for the server on either end.
    window: Vec<(u32, u32, u64)>,
    /// Id of the open window: [`SimNetwork::snapshot`] bumps it, and a
    /// snapshot is only read in the window it opened.
    window_id: u64,
    server_received: u64,
    server_sent: u64,
    server_bytes_sent: u64,
    server_bytes_received: u64,
    rounds: u64,
    /// `Some` on a sharded network: server-bound uploads land at the
    /// aggregators, and the server hears their partials.
    tier: Option<AggregatorTier>,
}

impl SimNetwork {
    /// Endpoint id of the aggregation server in per-edge keys — aliased to
    /// the simulator's sentinel so ledger inbound lists and the timing
    /// schedule can never disagree about who the server is.
    pub const SERVER: u32 = lumos_sim::SERVER_SENDER;

    /// Creates a network for `n` devices.
    pub fn new(n: usize) -> Self {
        Self {
            devices: vec![DeviceTraffic::default(); n],
            window: Vec::new(),
            window_id: 0,
            server_received: 0,
            server_sent: 0,
            server_bytes_sent: 0,
            server_bytes_received: 0,
            rounds: 0,
            tier: None,
        }
    }

    /// Creates a network whose uploads go through edge aggregators:
    /// `shard_of[d]` names the aggregator device `d` reports to.
    pub fn new_sharded(shard_of: Vec<u32>) -> Self {
        assert!(!shard_of.is_empty(), "sharded network needs devices");
        let aggregators = shard_of.iter().copied().max().unwrap() as usize + 1;
        let n = shard_of.len();
        let mut net = Self::new(n);
        net.tier = Some(AggregatorTier {
            shard_of,
            up: vec![EdgeTraffic::default(); aggregators],
            down: vec![EdgeTraffic::default(); aggregators],
            rehome: None,
        });
        net
    }

    /// Installs (or clears) the round's failover routing. With a map in
    /// place, a [`SimNetwork::SERVER`]-bound [`SimNetwork::send`] tallies
    /// each upload on the aggregator actually serving the sender's shard,
    /// and [`SimNetwork::send_partials`] ships nothing from an outaged
    /// aggregator, so its ledger stays flat while its successor absorbs the
    /// traffic. Tier-2 timing reads the same map back
    /// ([`SimNetwork::rehome_map`]) to fold each outaged shard's members into
    /// their successor — one copy, so timing and the ledger cannot disagree
    /// on who served the round.
    ///
    /// # Panics
    /// Panics in flat mode, or if the map's length disagrees with the
    /// aggregator count.
    pub fn set_rehome(&mut self, rehome: Option<Vec<u32>>) {
        let tier = self
            .tier
            .as_mut()
            .expect("set_rehome requires a sharded network");
        if let Some(map) = &rehome {
            assert_eq!(
                map.len(),
                tier.up.len(),
                "failover map and ledger disagree on aggregator count"
            );
        }
        tier.rehome = rehome;
    }

    /// The round's failover map as installed by [`SimNetwork::set_rehome`]
    /// (`None`: every shard is served by its own aggregator).
    pub fn rehome_map(&self) -> Option<&[u32]> {
        self.tier.as_ref().and_then(|t| t.rehome.as_deref())
    }

    /// Ships one `bytes` partial to the server from every aggregator that
    /// serves the round: all of them, or under a failover map only those
    /// serving their own shard — an outaged aggregator's members were
    /// re-homed to its successor, whose merged partial is the one sent. A
    /// flat network has no aggregators and ships nothing.
    pub fn send_partials(&mut self, bytes: u64) {
        for k in 0..self.num_aggregators() as u32 {
            if self.rehome_map().is_none_or(|map| map[k as usize] == k) {
                self.send_aggregator_to_server(k, bytes);
            }
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Number of edge aggregators (0 on a flat network).
    pub fn num_aggregators(&self) -> usize {
        self.tier.as_ref().map_or(0, |t| t.up.len())
    }

    /// Messages logged in the open window — one round's sends, on a flat
    /// and a sharded network alike.
    pub fn ledger_entries(&self) -> usize {
        self.window.len()
    }

    /// Bytes the ledger holds: the per-device tallies, the window's
    /// [`SimNetwork::ledger_entries`], and the two per-shard tally arrays
    /// of a sharded network (a logged message and a shard tally are both
    /// 16 bytes).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let tallies = 2 * self.num_aggregators();
        self.devices.len() * size_of::<DeviceTraffic>()
            + (self.window.len() + tallies) * size_of::<(u32, u32, u64)>()
    }

    /// Records a message from device `from` to device `to`, or — with `to`
    /// = [`SimNetwork::SERVER`] — its upload to the aggregation point,
    /// which picks its own tier: straight to the server on a flat network,
    /// to the sender's aggregator under the round's failover map on a
    /// sharded one (the server then hears only the partials of
    /// [`SimNetwork::send_partials`]). The sender pays one message and
    /// `bytes` either way, and the window logs it either way.
    pub fn send(&mut self, from: u32, to: u32, bytes: u64) {
        let d = &mut self.devices[from as usize];
        d.sent += 1;
        d.bytes_sent += bytes;
        if to != Self::SERVER {
            let r = &mut self.devices[to as usize];
            r.received += 1;
            r.bytes_received += bytes;
        } else if let Some(tier) = &mut self.tier {
            let home = tier.shard_of[from as usize];
            let k = tier.rehome.as_ref().map_or(home, |map| map[home as usize]) as usize;
            tier.up[k].messages += 1;
            tier.up[k].bytes += bytes;
        } else {
            self.server_received += 1;
            self.server_bytes_received += bytes;
        }
        self.window.push((from, to, bytes));
    }

    /// `send(from, SimNetwork::SERVER, bytes)`.
    pub fn send_to_server(&mut self, from: u32, bytes: u64) {
        self.send(from, Self::SERVER, bytes);
    }

    /// `send(from, SimNetwork::SERVER, bytes)`.
    pub fn send_to_aggregator(&mut self, from: u32, bytes: u64) {
        self.send(from, Self::SERVER, bytes);
    }

    /// Records one aggregator's pooled partial reaching the server. This
    /// is infrastructure traffic — it shows up in the server's inbound
    /// counters and the shard tally, not in any device's or the window —
    /// so per-round server traffic is O(aggregators) by construction.
    pub fn send_aggregator_to_server(&mut self, shard: u32, bytes: u64) {
        let tier = self
            .tier
            .as_mut()
            .expect("send_aggregator_to_server requires a sharded network");
        let e = &mut tier.down[shard as usize];
        e.messages += 1;
        e.bytes += bytes;
        self.server_received += 1;
        self.server_bytes_received += bytes;
    }

    /// Device-tier traffic into one shard's aggregator.
    pub fn shard_up(&self, shard: u32) -> EdgeTraffic {
        self.tier
            .as_ref()
            .map_or_else(EdgeTraffic::default, |t| t.up[shard as usize])
    }

    /// One shard's aggregator-to-server traffic.
    pub fn shard_down(&self, shard: u32) -> EdgeTraffic {
        self.tier
            .as_ref()
            .map_or_else(EdgeTraffic::default, |t| t.down[shard as usize])
    }

    /// Records a server-to-device message.
    pub fn send_from_server(&mut self, to: u32, bytes: u64) {
        self.server_sent += 1;
        self.server_bytes_sent += bytes;
        let r = &mut self.devices[to as usize];
        r.received += 1;
        r.bytes_received += bytes;
        self.window.push((Self::SERVER, to, bytes));
    }

    /// Marks a synchronization round (all devices advance together — the
    /// paper's synchronous federation, §IV-B).
    pub fn round(&mut self) {
        self.rounds += 1;
    }

    /// Traffic of one device.
    pub fn device(&self, v: u32) -> DeviceTraffic {
        self.devices[v as usize]
    }

    /// Total device-to-device plus device-to-server messages.
    pub fn total_messages(&self) -> u64 {
        self.devices.iter().map(|d| d.sent).sum::<u64>() + self.server_sent
    }

    /// Total payload bytes across all three directions: device → device and
    /// device → server (both counted at the sending device) plus
    /// server → device.
    pub fn total_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.bytes_sent).sum::<u64>() + self.server_bytes_sent
    }

    /// Payload bytes sent by the server.
    pub fn server_bytes_sent(&self) -> u64 {
        self.server_bytes_sent
    }

    /// Synchronization rounds so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Messages received by the server.
    pub fn server_received(&self) -> u64 {
        self.server_received
    }

    /// Payload bytes received by the server — direct device uploads in
    /// the flat topology, aggregator partials in the hierarchical one.
    pub fn server_bytes_received(&self) -> u64 {
        self.server_bytes_received
    }

    /// Opens a ledger window and returns its snapshot for differential
    /// accounting: the per-device counters as they stand, and the id of
    /// the window whose message log starts empty here. Every `*_since`
    /// reader takes the snapshot of the window still open.
    pub fn snapshot(&mut self) -> NetworkSnapshot {
        self.window.clear();
        self.window_id += 1;
        NetworkSnapshot {
            window: self.window_id,
            total_messages: self.total_messages(),
            total_bytes: self.total_bytes(),
            rounds: self.rounds,
            per_device_sent: self.devices.iter().map(|d| d.sent).collect(),
            per_device_bytes_sent: self.devices.iter().map(|d| d.bytes_sent).collect(),
            per_device_bytes_received: self.devices.iter().map(|d| d.bytes_received).collect(),
        }
    }

    /// The open window's snapshot is the only one a reader may take.
    fn check_window(&self, snap: &NetworkSnapshot) {
        assert_eq!(
            snap.window, self.window_id,
            "stale NetworkSnapshot: it opened ledger window {} but window {} is open — \
             a later snapshot() closed it, so read a window before snapshotting again",
            snap.window, self.window_id,
        );
    }

    /// Per-device messages sent since a snapshot.
    ///
    /// # Panics
    /// Panics if `snap` is not the open window's (as do all `*_since`).
    pub fn sent_since(&self, snap: &NetworkSnapshot) -> Vec<u64> {
        self.check_window(snap);
        self.devices
            .iter()
            .zip(&snap.per_device_sent)
            .map(|(d, &s)| d.sent - s)
            .collect()
    }

    /// Per-device payload bytes sent since a snapshot.
    pub fn bytes_sent_since(&self, snap: &NetworkSnapshot) -> Vec<u64> {
        self.check_window(snap);
        self.devices
            .iter()
            .zip(&snap.per_device_bytes_sent)
            .map(|(d, &s)| d.bytes_sent - s)
            .collect()
    }

    /// Per-device payload bytes received since a snapshot.
    pub fn bytes_received_since(&self, snap: &NetworkSnapshot) -> Vec<u64> {
        self.check_window(snap);
        self.devices
            .iter()
            .zip(&snap.per_device_bytes_received)
            .map(|(d, &s)| d.bytes_received - s)
            .collect()
    }

    /// Every directed edge used since a snapshot, with its message/byte
    /// totals, sorted by `(from, to)`.
    pub fn sent_matrix_since(&self, snap: &NetworkSnapshot) -> Vec<((u32, u32), EdgeTraffic)> {
        self.check_window(snap);
        let mut log = self.window.clone();
        log.sort_unstable_by_key(|&(from, to, _)| (from, to));
        let mut edges: Vec<((u32, u32), EdgeTraffic)> = Vec::new();
        for (from, to, bytes) in log {
            match edges.last_mut() {
                Some((key, e)) if *key == (from, to) => {
                    e.messages += 1;
                    e.bytes += bytes;
                }
                _ => edges.push(((from, to), EdgeTraffic { messages: 1, bytes })),
            }
        }
        edges
    }

    /// Every receiver's inbound `(sender, bytes)` list since a snapshot,
    /// for all devices in one deterministic pass, as one offset-indexed
    /// buffer: device `d`'s list is `lists[start[d]..start[d + 1]]` (the
    /// per-destination timing input [`crate::ledger_work`] hands to
    /// `lumos-sim`). Each list is sorted by sender ([`SimNetwork::SERVER`]
    /// last), one entry per sender with its bytes summed; zero-byte senders
    /// are left out, and so are server-bound messages.
    pub(crate) fn received_since(&self, snap: &NetworkSnapshot) -> (Vec<usize>, Vec<(u32, u64)>) {
        self.check_window(snap);
        // Counting sort of the log by receiver: receiver `to`'s messages
        // are `lists[start[to]..start[to + 1]]`, in send order. A zero-byte
        // message adds nothing to its sender's sum, so it is never listed.
        let n = self.devices.len();
        let to_device = self
            .window
            .iter()
            .filter(|&&(_, to, bytes)| to != Self::SERVER && bytes > 0);
        let mut start = vec![0usize; n + 1];
        for &(_, to, _) in to_device.clone() {
            start[to as usize + 1] += 1;
        }
        for d in 0..n {
            start[d + 1] += start[d];
        }
        let mut fill = start.clone();
        let mut lists = vec![(0u32, 0u64); start[n]];
        for &(from, to, bytes) in to_device {
            let slot = &mut fill[to as usize];
            lists[*slot] = (from, bytes);
            *slot += 1;
        }
        // Sort each receiver's run by sender and merge it in place; merged
        // runs never outgrow their slots, so one cursor compacts them all.
        let mut kept = 0;
        for d in 0..n {
            let run = start[d]..start[d + 1];
            start[d] = kept;
            lists[run.clone()].sort_unstable_by_key(|&(from, _)| from);
            for i in run {
                let (from, bytes) = lists[i];
                if kept > start[d] && lists[kept - 1].0 == from {
                    lists[kept - 1].1 += bytes;
                } else {
                    lists[kept] = (from, bytes);
                    kept += 1;
                }
            }
        }
        start[n] = kept;
        lists.truncate(kept);
        (start, lists)
    }
}

/// The counters a ledger window opened on ([`SimNetwork::snapshot`]).
#[derive(Debug, Clone)]
pub struct NetworkSnapshot {
    /// The window this snapshot opened.
    window: u64,
    /// Total messages at snapshot time.
    pub total_messages: u64,
    /// Total bytes at snapshot time.
    pub total_bytes: u64,
    /// Rounds at snapshot time.
    pub rounds: u64,
    /// Per-device sent counters.
    pub per_device_sent: Vec<u64>,
    /// Per-device bytes-sent counters.
    pub per_device_bytes_sent: Vec<u64>,
    /// Per-device bytes-received counters.
    pub per_device_bytes_received: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_accounting() {
        let mut net = SimNetwork::new(3);
        net.send(0, 1, 100);
        net.send(0, 2, 50);
        net.send(2, 0, 10);
        net.send_to_server(1, 4);
        net.send_from_server(1, 6);
        net.round();
        assert_eq!(net.device(0).sent, 2);
        assert_eq!(net.device(0).received, 1);
        assert_eq!(net.device(0).bytes_sent, 150);
        assert_eq!(net.device(0).bytes_received, 10);
        assert_eq!(net.device(1).received, 2);
        assert_eq!(net.device(1).bytes_received, 106); // 100 from dev 0 + 6 from server
        assert_eq!(net.device(2).bytes_received, 50);
        assert_eq!(net.total_messages(), 5);
        // All three directions: 160 dev→dev + 4 dev→server + 6 server→dev.
        assert_eq!(net.server_bytes_sent(), 6);
        assert_eq!(net.total_bytes(), 170);
        assert_eq!(net.rounds(), 1);
        assert_eq!(net.server_received(), 1);
        assert_eq!((0..3).map(|d| net.device(d).sent).sum::<u64>(), 4);
    }

    #[test]
    fn server_payloads_are_not_dropped() {
        // Regression: `send_from_server` used to discard its byte argument,
        // so server → device payloads were invisible to `total_bytes`.
        let mut net = SimNetwork::new(2);
        net.send_from_server(0, 128);
        net.send_from_server(1, 128);
        assert_eq!(net.total_bytes(), 256);
        assert_eq!(net.server_bytes_sent(), 256);
        assert_eq!(net.device(0).bytes_received, 128);
        assert_eq!(net.total_messages(), 2);
    }

    #[test]
    fn snapshot_differencing() {
        let mut net = SimNetwork::new(2);
        net.send(0, 1, 8);
        let snap = net.snapshot();
        net.send(0, 1, 8);
        net.send(1, 0, 8);
        let delta = net.sent_since(&snap);
        assert_eq!(delta, vec![1, 1]);
        assert_eq!(net.total_messages() - snap.total_messages, 2);
        assert_eq!(net.bytes_sent_since(&snap), vec![8, 8]);
        assert_eq!(net.bytes_received_since(&snap), vec![8, 8]);
    }

    #[test]
    fn sharded_ledger_routes_through_aggregators_and_logs_its_window() {
        // 4 devices across 2 shards. Device uploads land on shard
        // tallies; the server only hears from aggregators.
        let mut net = SimNetwork::new_sharded(vec![0, 0, 1, 1]);
        assert_eq!(net.num_aggregators(), 2);
        let snap = net.snapshot();
        for d in 0..4 {
            net.send(d, SimNetwork::SERVER, 64);
        }
        net.send(0, 2, 8);
        net.send_partials(64);
        net.round();
        let edge = |messages, bytes| EdgeTraffic { messages, bytes };
        // Server traffic is O(aggregators): 2 messages, not 4.
        assert_eq!(net.server_received(), 2);
        assert_eq!(net.server_bytes_received(), 128);
        assert_eq!(net.shard_up(0), edge(2, 128));
        assert_eq!(net.shard_down(1), edge(1, 64));
        // Device totals still price each upload at the sender.
        assert_eq!(net.device(0).sent, 2);
        assert_eq!(net.device(0).bytes_sent, 72);
        assert_eq!(net.total_messages(), 5);
        // The window logs the five device sends, as a flat one would; the
        // partials are the aggregators', not a device's.
        assert_eq!(net.ledger_entries(), 5);
        assert_eq!(
            crate::ledger_work(&net, &snap, &[0; 4], 1).inbound(2),
            [(0, 8)]
        );
        assert_eq!(
            net.sent_matrix_since(&snap)[0],
            ((0, 2), edge(1, 8)),
            "device 0's gossip, then its upload"
        );
    }

    #[test]
    fn flat_ledger_counts_server_bytes_received() {
        let mut net = SimNetwork::new(2);
        net.send_to_server(0, 10);
        net.send_to_server(1, 30);
        assert_eq!(net.server_bytes_received(), 40);
        assert_eq!(net.ledger_entries(), 2);
    }

    #[test]
    fn an_upload_on_a_flat_network_reaches_the_server() {
        // Every upload door is the routed `send`: with no aggregators the
        // server hears each device, and there are no partials to ship.
        let mut net = SimNetwork::new(2);
        net.send_to_aggregator(0, 8);
        net.send(1, SimNetwork::SERVER, 8);
        net.send_partials(8);
        assert_eq!(net.server_received(), 2);
        assert_eq!(net.server_bytes_received(), 16);
        assert_eq!(net.num_aggregators(), 0);
    }

    #[test]
    fn failover_routes_uploads_to_the_successor_aggregator() {
        let mut net = SimNetwork::new_sharded(vec![0, 0, 1, 1]);
        // Aggregator 0 is down: shard 0's uploads land on aggregator 1,
        // and only aggregator 1 ships a partial.
        net.set_rehome(Some(vec![1, 1]));
        for d in 0..4 {
            net.send(d, SimNetwork::SERVER, 64);
        }
        net.send_partials(64);
        let edge = |messages, bytes| EdgeTraffic { messages, bytes };
        assert_eq!(net.shard_up(0), EdgeTraffic::default());
        assert_eq!(net.shard_up(1), edge(4, 256));
        assert_eq!(net.shard_down(0), EdgeTraffic::default());
        assert_eq!(net.shard_down(1), edge(1, 64));
        assert_eq!(net.server_received(), 1);
        // Senders still pay full price for their uploads.
        assert_eq!(net.device(0).sent, 1);
        assert_eq!(net.device(0).bytes_sent, 64);
        // Clearing the map restores home routing.
        net.set_rehome(None);
        net.send(0, SimNetwork::SERVER, 64);
        net.send_partials(64);
        assert_eq!(net.shard_up(0), edge(1, 64));
        assert_eq!(net.shard_down(0), edge(1, 64));
    }

    #[test]
    #[should_panic(expected = "disagree on aggregator count")]
    fn mis_sized_failover_map_panics() {
        SimNetwork::new_sharded(vec![0, 1]).set_rehome(Some(vec![0]));
    }

    #[test]
    fn per_edge_ledger_tracks_each_sender_separately() {
        // The tentpole regression: aggregate per-device totals cannot tell
        // a receiver *who* its bytes came from. The window log can.
        let mut net = SimNetwork::new(3);
        net.send(0, 2, 100);
        let snap = net.snapshot();
        net.send(0, 2, 40);
        net.send(0, 2, 2);
        net.send(1, 2, 7);
        net.send_from_server(2, 9);
        net.send_to_server(2, 1);
        // The window opened after the first 100 bytes: they are not in it.
        let inbound = crate::ledger_work(&net, &snap, &[0; 3], 1);
        assert_eq!(
            inbound.inbound(2),
            [(0, 42), (1, 7), (SimNetwork::SERVER, 9)]
        );
        assert!(inbound.inbound(0).is_empty() && inbound.inbound(1).is_empty());
        let edge = |messages, bytes| EdgeTraffic { messages, bytes };
        assert_eq!(
            net.sent_matrix_since(&snap),
            vec![
                ((0, 2), edge(2, 42)),
                ((1, 2), edge(1, 7)),
                ((2, SimNetwork::SERVER), edge(1, 1)),
                ((SimNetwork::SERVER, 2), edge(1, 9)),
            ],
            "one entry per edge, sorted by (from, to)"
        );
        // The window logs messages, not distinct edges.
        assert_eq!(net.ledger_entries(), 5);
        // Totals are consistent with the aggregate ledger.
        let agg = net.bytes_received_since(&snap);
        for (d, &total) in agg.iter().enumerate() {
            let sum: u64 = inbound.inbound(d).iter().map(|&(_, b)| b).sum();
            assert_eq!(sum, total, "device {d} inbound totals diverge");
            assert_eq!(inbound.bytes_in(d), total, "device {d} byte sum diverges");
        }
    }
}
