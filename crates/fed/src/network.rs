//! Simulated inter-device network with per-device and per-edge accounting.
//!
//! Figure 8a reports the *average number of inter-device communication
//! rounds per device per epoch*; this ledger records every message the
//! protocols exchange so the harness can reproduce that series exactly.
//! Each message is additionally tallied on its `(sender → receiver)` edge:
//! the per-destination timing schedule needs to know *who* a device's
//! inbound bytes came from, because the drain cannot start before the
//! slowest of those senders has actually delivered. (The ledger used to
//! keep only aggregate per-device byte totals — the approximation that made
//! makespans optimistic whenever a fast receiver's senders were slow.)

use std::collections::BTreeMap;

/// Compact per-shard ledger used by hierarchical topologies.
///
/// At 10⁵–10⁶ devices the per-edge `BTreeMap` is the memory wall: one
/// entry per directed `(sender → receiver)` pair is O(edges). The
/// sharded ledger replaces it with two O(aggregators) tally arrays —
/// device-tier traffic into each shard's aggregator, and each
/// aggregator's partials to the server — so a sharded network is
/// O(devices + aggregators) regardless of how chatty the fleet is.
#[derive(Debug, Clone)]
struct ShardLedger {
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
    /// Directed per-edge tallies keyed `(from, to)`; [`SimNetwork::SERVER`]
    /// stands in for the server on either end. A `BTreeMap` keeps every
    /// traversal deterministic.
    edges: BTreeMap<(u32, u32), EdgeTraffic>,
    server_received: u64,
    server_sent: u64,
    server_bytes_sent: u64,
    server_bytes_received: u64,
    rounds: u64,
    /// `Some` switches the ledger into compact sharded mode: device-to-
    /// device messages keep their per-device tallies but skip the
    /// per-edge map, and aggregator traffic is tallied per shard.
    sharded: Option<ShardLedger>,
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
            edges: BTreeMap::new(),
            server_received: 0,
            server_sent: 0,
            server_bytes_sent: 0,
            server_bytes_received: 0,
            rounds: 0,
            sharded: None,
        }
    }

    /// Creates a network in compact sharded mode: `shard_of[d]` names the
    /// aggregator device `d` reports to. Memory stays
    /// O(devices + aggregators) — no per-edge map is kept, so inbound
    /// timing degrades to the aggregate schedule (`ledger_work` handles
    /// the switch).
    pub fn new_sharded(shard_of: Vec<u32>) -> Self {
        assert!(!shard_of.is_empty(), "sharded network needs devices");
        let aggregators = shard_of.iter().copied().max().unwrap() as usize + 1;
        let n = shard_of.len();
        let mut net = Self::new(n);
        net.sharded = Some(ShardLedger {
            shard_of,
            up: vec![EdgeTraffic::default(); aggregators],
            down: vec![EdgeTraffic::default(); aggregators],
            rehome: None,
        });
        net
    }

    /// Installs (or clears) the round's failover routing. With a map in
    /// place, [`SimNetwork::send_to_aggregator`] tallies each upload on
    /// the aggregator actually serving the sender's shard, so an outaged
    /// aggregator's ledger stays flat while its successor absorbs the
    /// traffic.
    ///
    /// # Panics
    /// Panics in flat mode, or if the map's length disagrees with the
    /// aggregator count.
    pub fn set_rehome(&mut self, rehome: Option<Vec<u32>>) {
        let s = self
            .sharded
            .as_mut()
            .expect("set_rehome requires a sharded network");
        if let Some(map) = &rehome {
            assert_eq!(
                map.len(),
                s.up.len(),
                "failover map and ledger disagree on aggregator count"
            );
        }
        s.rehome = rehome;
    }

    /// The aggregator actually serving `shard` this round (itself unless
    /// a failover map re-homes it).
    pub fn rehome_target(&self, shard: u32) -> u32 {
        self.rehome_map().map_or(shard, |map| map[shard as usize])
    }

    /// The round's failover map as installed by [`SimNetwork::set_rehome`]
    /// (`None`: every shard is served by its own aggregator).
    pub fn rehome_map(&self) -> Option<&[u32]> {
        self.sharded.as_ref().and_then(|s| s.rehome.as_deref())
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Whether the ledger runs in compact sharded mode.
    pub fn is_sharded(&self) -> bool {
        self.sharded.is_some()
    }

    /// Number of edge aggregators (0 in flat mode).
    pub fn num_aggregators(&self) -> usize {
        self.sharded.as_ref().map_or(0, |s| s.up.len())
    }

    /// Live ledger entry count — the memory the accounting structures
    /// actually hold: per-edge map entries in flat mode, the two
    /// per-shard tally arrays in sharded mode.
    pub fn ledger_entries(&self) -> usize {
        match &self.sharded {
            Some(s) => s.up.len() + s.down.len(),
            None => self.edges.len(),
        }
    }

    /// Bytes the ledger holds: the per-device tallies and its
    /// [`SimNetwork::ledger_entries`] (key and tally each).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.devices.len() * size_of::<DeviceTraffic>()
            + self.ledger_entries() * size_of::<((u32, u32), EdgeTraffic)>()
    }

    fn record_edge(&mut self, from: u32, to: u32, bytes: u64) {
        // Sharded mode keeps no per-edge map — that's the whole point.
        if self.sharded.is_some() {
            return;
        }
        let e = self.edges.entry((from, to)).or_default();
        e.messages += 1;
        e.bytes += bytes;
    }

    /// Records a device-to-device message.
    pub fn send(&mut self, from: u32, to: u32, bytes: u64) {
        let d = &mut self.devices[from as usize];
        d.sent += 1;
        d.bytes_sent += bytes;
        let r = &mut self.devices[to as usize];
        r.received += 1;
        r.bytes_received += bytes;
        self.record_edge(from, to, bytes);
    }

    /// Records a device-to-server message.
    pub fn send_to_server(&mut self, from: u32, bytes: u64) {
        let d = &mut self.devices[from as usize];
        d.sent += 1;
        d.bytes_sent += bytes;
        self.server_received += 1;
        self.server_bytes_received += bytes;
        self.record_edge(from, Self::SERVER, bytes);
    }

    /// Records a device's upload to its shard aggregator (hierarchical
    /// topologies only). Costs the device exactly what a server upload
    /// would — one message, `bytes` payload — but lands on the shard
    /// tally instead of the server: the server never sees it.
    pub fn send_to_aggregator(&mut self, from: u32, bytes: u64) {
        let shard = {
            let s = self
                .sharded
                .as_ref()
                .expect("send_to_aggregator requires a sharded network");
            let home = s.shard_of[from as usize];
            // Under failover the upload lands at the shard's successor.
            s.rehome.as_ref().map_or(home, |map| map[home as usize]) as usize
        };
        let d = &mut self.devices[from as usize];
        d.sent += 1;
        d.bytes_sent += bytes;
        let s = self.sharded.as_mut().unwrap();
        s.up[shard].messages += 1;
        s.up[shard].bytes += bytes;
    }

    /// Records one aggregator's pooled partial reaching the server. This
    /// is infrastructure traffic — it shows up in the server's inbound
    /// counters and the shard tally, not in any device's — so per-round
    /// server traffic is O(aggregators) by construction.
    pub fn send_aggregator_to_server(&mut self, shard: u32, bytes: u64) {
        let s = self
            .sharded
            .as_mut()
            .expect("send_aggregator_to_server requires a sharded network");
        let e = &mut s.down[shard as usize];
        e.messages += 1;
        e.bytes += bytes;
        self.server_received += 1;
        self.server_bytes_received += bytes;
    }

    /// Device-tier traffic into one shard's aggregator.
    pub fn shard_up(&self, shard: u32) -> EdgeTraffic {
        self.sharded
            .as_ref()
            .map_or_else(EdgeTraffic::default, |s| s.up[shard as usize])
    }

    /// One shard's aggregator-to-server traffic.
    pub fn shard_down(&self, shard: u32) -> EdgeTraffic {
        self.sharded
            .as_ref()
            .map_or_else(EdgeTraffic::default, |s| s.down[shard as usize])
    }

    /// Records a server-to-device message.
    pub fn send_from_server(&mut self, to: u32, bytes: u64) {
        self.server_sent += 1;
        self.server_bytes_sent += bytes;
        let r = &mut self.devices[to as usize];
        r.received += 1;
        r.bytes_received += bytes;
        self.record_edge(Self::SERVER, to, bytes);
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

    /// Cumulative traffic of one directed edge (zero if never used).
    pub fn edge(&self, from: u32, to: u32) -> EdgeTraffic {
        self.edges.get(&(from, to)).copied().unwrap_or_default()
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

    /// Average messages sent per device (Fig. 8a's y-axis when divided by
    /// epochs).
    pub fn avg_sent_per_device(&self) -> f64 {
        if self.devices.is_empty() {
            0.0
        } else {
            self.devices.iter().map(|d| d.sent).sum::<u64>() as f64 / self.devices.len() as f64
        }
    }

    /// Snapshot for differential accounting.
    pub fn snapshot(&self) -> NetworkSnapshot {
        NetworkSnapshot {
            total_messages: self.total_messages(),
            total_bytes: self.total_bytes(),
            rounds: self.rounds,
            per_device_sent: self.devices.iter().map(|d| d.sent).collect(),
            per_device_bytes_sent: self.devices.iter().map(|d| d.bytes_sent).collect(),
            per_device_bytes_received: self.devices.iter().map(|d| d.bytes_received).collect(),
            edges: self.edges.clone(),
        }
    }

    /// Per-device messages sent since a snapshot.
    pub fn sent_since(&self, snap: &NetworkSnapshot) -> Vec<u64> {
        self.devices
            .iter()
            .zip(&snap.per_device_sent)
            .map(|(d, &s)| d.sent - s)
            .collect()
    }

    /// Per-device payload bytes sent since a snapshot.
    pub fn bytes_sent_since(&self, snap: &NetworkSnapshot) -> Vec<u64> {
        self.devices
            .iter()
            .zip(&snap.per_device_bytes_sent)
            .map(|(d, &s)| d.bytes_sent - s)
            .collect()
    }

    /// Per-device payload bytes received since a snapshot.
    pub fn bytes_received_since(&self, snap: &NetworkSnapshot) -> Vec<u64> {
        self.devices
            .iter()
            .zip(&snap.per_device_bytes_received)
            .map(|(d, &s)| d.bytes_received - s)
            .collect()
    }

    /// Every directed edge used since a snapshot, with its message/byte
    /// deltas, sorted by `(from, to)`.
    pub fn sent_matrix_since(&self, snap: &NetworkSnapshot) -> Vec<((u32, u32), EdgeTraffic)> {
        self.edges
            .iter()
            .filter_map(|(&key, &cur)| {
                let prev = snap.edges.get(&key).copied().unwrap_or_default();
                let delta = EdgeTraffic {
                    messages: cur.messages - prev.messages,
                    bytes: cur.bytes - prev.bytes,
                };
                (delta.messages > 0 || delta.bytes > 0).then_some((key, delta))
            })
            .collect()
    }

    /// The `(sender, bytes)` contributions received by device `to` since a
    /// snapshot, sorted by sender id ([`SimNetwork::SERVER`] sorts last).
    pub fn received_from_since(&self, snap: &NetworkSnapshot, to: u32) -> Vec<(u32, u64)> {
        self.sent_matrix_since(snap)
            .into_iter()
            .filter_map(|((from, t), e)| (t == to && e.bytes > 0).then_some((from, e.bytes)))
            .collect()
    }

    /// Per-receiver inbound `(sender, bytes)` lists since a snapshot, for
    /// all devices in one deterministic pass (the per-destination timing
    /// input `Runtime::end_epoch` hands to `lumos-sim`).
    pub fn received_matrix_since(&self, snap: &NetworkSnapshot) -> Vec<Vec<(u32, u64)>> {
        let mut inbound: Vec<Vec<(u32, u64)>> = vec![Vec::new(); self.devices.len()];
        for ((from, to), e) in self.sent_matrix_since(snap) {
            if to != Self::SERVER && e.bytes > 0 {
                inbound[to as usize].push((from, e.bytes));
            }
        }
        // Edge keys iterate sorted by (from, to), so each receiver's list
        // is already sorted by sender — but make the contract explicit.
        for list in &mut inbound {
            debug_assert!(list.windows(2).all(|w| w[0].0 < w[1].0));
        }
        inbound
    }
}

/// A point-in-time copy of the network counters.
#[derive(Debug, Clone)]
pub struct NetworkSnapshot {
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
    /// Per-edge counters at snapshot time.
    pub edges: BTreeMap<(u32, u32), EdgeTraffic>,
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
        assert!((net.avg_sent_per_device() - 4.0 / 3.0).abs() < 1e-12);
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
    fn sharded_ledger_is_compact_and_routes_through_aggregators() {
        // 4 devices across 2 shards. Device uploads land on shard
        // tallies; the server only hears from aggregators.
        let mut net = SimNetwork::new_sharded(vec![0, 0, 1, 1]);
        assert!(net.is_sharded());
        assert_eq!(net.num_aggregators(), 2);
        for d in 0..4 {
            net.send_to_aggregator(d, 64);
        }
        net.send(0, 2, 8); // cross-shard gossip keeps device tallies only
        net.send_aggregator_to_server(0, 64);
        net.send_aggregator_to_server(1, 64);
        net.round();
        // Server traffic is O(aggregators): 2 messages, not 4.
        assert_eq!(net.server_received(), 2);
        assert_eq!(net.server_bytes_received(), 128);
        assert_eq!(
            net.shard_up(0),
            EdgeTraffic {
                messages: 2,
                bytes: 128
            }
        );
        assert_eq!(
            net.shard_down(1),
            EdgeTraffic {
                messages: 1,
                bytes: 64
            }
        );
        // Device totals still price each upload at the sender.
        assert_eq!(net.device(0).sent, 2);
        assert_eq!(net.device(0).bytes_sent, 72);
        assert_eq!(net.total_messages(), 5);
        // No per-edge map: memory is the 2×K tallies, however chatty.
        assert_eq!(net.ledger_entries(), 4);
        assert!(net
            .received_matrix_since(&net.snapshot())
            .iter()
            .all(Vec::is_empty));
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
    #[should_panic(expected = "requires a sharded network")]
    fn aggregator_send_requires_sharded_mode() {
        SimNetwork::new(2).send_to_aggregator(0, 8);
    }

    #[test]
    fn failover_routes_uploads_to_the_successor_aggregator() {
        let mut net = SimNetwork::new_sharded(vec![0, 0, 1, 1]);
        // Aggregator 0 is down: shard 0's uploads land on aggregator 1.
        net.set_rehome(Some(vec![1, 1]));
        assert_eq!(net.rehome_target(0), 1);
        assert_eq!(net.rehome_target(1), 1);
        for d in 0..4 {
            net.send_to_aggregator(d, 64);
        }
        assert_eq!(net.shard_up(0), EdgeTraffic::default());
        assert_eq!(
            net.shard_up(1),
            EdgeTraffic {
                messages: 4,
                bytes: 256
            }
        );
        // Senders still pay full price for their uploads.
        assert_eq!(net.device(0).sent, 1);
        assert_eq!(net.device(0).bytes_sent, 64);
        // Clearing the map restores home routing.
        net.set_rehome(None);
        assert_eq!(net.rehome_target(0), 0);
        net.send_to_aggregator(0, 64);
        assert_eq!(net.shard_up(0).messages, 1);
    }

    #[test]
    #[should_panic(expected = "disagree on aggregator count")]
    fn mis_sized_failover_map_panics() {
        SimNetwork::new_sharded(vec![0, 1]).set_rehome(Some(vec![0]));
    }

    #[test]
    fn per_edge_ledger_tracks_each_sender_separately() {
        // The tentpole regression: aggregate per-device totals cannot tell
        // a receiver *who* its bytes came from. The edge ledger can.
        let mut net = SimNetwork::new(3);
        net.send(0, 2, 100);
        let snap = net.snapshot();
        net.send(0, 2, 40);
        net.send(0, 2, 2);
        net.send(1, 2, 7);
        net.send_from_server(2, 9);
        net.send_to_server(2, 1);
        // Edge deltas exclude the pre-snapshot 100 bytes.
        assert_eq!(
            net.received_from_since(&snap, 2),
            vec![(0, 42), (1, 7), (SimNetwork::SERVER, 9)]
        );
        assert!(net.received_from_since(&snap, 0).is_empty());
        assert_eq!(
            net.edge(0, 2),
            EdgeTraffic {
                messages: 3,
                bytes: 142
            }
        );
        assert_eq!(net.edge(2, SimNetwork::SERVER).bytes, 1);
        let matrix = net.sent_matrix_since(&snap);
        assert_eq!(matrix.len(), 4, "0→2, 1→2, 2→server, server→2");
        assert!(matrix.windows(2).all(|w| w[0].0 < w[1].0), "sorted keys");
        // The one-pass per-receiver form agrees with the per-device query
        // and never routes server-bound uploads into a device inbox.
        let inbound = net.received_matrix_since(&snap);
        for d in 0..3u32 {
            assert_eq!(inbound[d as usize], net.received_from_since(&snap, d));
        }
        // Totals are consistent with the aggregate ledger.
        let agg = net.bytes_received_since(&snap);
        for d in 0..3usize {
            let sum: u64 = inbound[d].iter().map(|&(_, b)| b).sum();
            assert_eq!(sum, agg[d], "device {d} inbound totals diverge");
        }
    }
}
