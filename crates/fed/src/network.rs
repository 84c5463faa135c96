//! Simulated inter-device network: one round's message log.
//!
//! Figure 8a reports the *average number of inter-device communication
//! rounds per device per epoch*; this ledger records every message the
//! protocols exchange so the harness can reproduce that series exactly.
//! The open window's `(from, to, bytes)` log is the ledger's one record of
//! a round's traffic: it answers "how much" per sender
//! ([`SimNetwork::sent_since`]) and "from whom" per receiver — the
//! per-destination timing schedule needs to know who a device's inbound
//! bytes came from, because the drain cannot start before the slowest of
//! those senders has actually delivered. [`SimNetwork::snapshot`] opens a
//! window, so the log holds one round's sends, never the run's history;
//! beyond it the run keeps only the totals something reads (messages so
//! far, and what the server heard).
//!
//! A hierarchical network is the same window plus aggregators
//! ([`SimNetwork::new_sharded`]): a server-bound upload is logged as on a
//! flat network, but the server hears only the aggregators' partials.

use crate::runtime::EMBEDDING_BYTES;

/// The simulated network connecting `n` devices and a server.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    devices: usize,
    /// Edge aggregators (0: a flat network, where the server hears every
    /// upload; otherwise it hears only their partials).
    aggregators: usize,
    /// Failover routing for the current round: `rehome[k]` is the
    /// aggregator actually serving shard `k` (`Topology::failover_map`
    /// output). `None` — the default — routes every shard to itself.
    rehome: Option<Vec<u32>>,
    /// The open window's device↔device and device→server messages as
    /// `(from, to, bytes)`, in send order; [`SimNetwork::SERVER`] stands
    /// in for the server as receiver.
    window: Vec<(u32, u32, u64)>,
    /// Id of the open window: [`SimNetwork::snapshot`] bumps it, and a
    /// snapshot is only read in the window it opened.
    window_id: u64,
    /// Messages of the windows already closed.
    closed_messages: u64,
    server_received: u64,
    server_bytes_received: u64,
    rounds: u64,
}

impl SimNetwork {
    /// Endpoint id of the aggregation server in per-edge keys — aliased to
    /// the simulator's sentinel so ledger inbound lists and the timing
    /// schedule can never disagree about who the server is.
    pub const SERVER: u32 = lumos_sim::SERVER_SENDER;

    /// Creates a network for `n` devices.
    pub fn new(n: usize) -> Self {
        Self {
            devices: n,
            aggregators: 0,
            rehome: None,
            window: Vec::new(),
            window_id: 0,
            closed_messages: 0,
            server_received: 0,
            server_bytes_received: 0,
            rounds: 0,
        }
    }

    /// Creates a network whose uploads go through edge aggregators:
    /// `shard_of[d]` names the aggregator device `d` reports to.
    pub fn new_sharded(shard_of: Vec<u32>) -> Self {
        assert!(!shard_of.is_empty(), "sharded network needs devices");
        let mut net = Self::new(shard_of.len());
        net.aggregators = shard_of.iter().copied().max().unwrap() as usize + 1;
        net
    }

    /// Installs (or clears) the round's failover routing. With a map in
    /// place, [`SimNetwork::send_partials`] ships nothing from an outaged
    /// aggregator, whose successor absorbs its shard's uploads. Tier-2
    /// timing reads the same map back ([`SimNetwork::rehome_map`]) to fold
    /// each outaged shard's members into their successor — one copy, so
    /// timing and the ledger cannot disagree on who served the round.
    ///
    /// # Panics
    /// Panics in flat mode, or if the map's length disagrees with the
    /// aggregator count.
    pub fn set_rehome(&mut self, rehome: Option<Vec<u32>>) {
        assert!(
            self.aggregators > 0,
            "set_rehome requires a sharded network"
        );
        if let Some(map) = &rehome {
            assert_eq!(
                map.len(),
                self.aggregators,
                "failover map and ledger disagree on aggregator count"
            );
        }
        self.rehome = rehome;
    }

    /// The round's failover map as installed by [`SimNetwork::set_rehome`]
    /// (`None`: every shard is served by its own aggregator).
    pub fn rehome_map(&self) -> Option<&[u32]> {
        self.rehome.as_deref()
    }

    /// Ships one [`EMBEDDING_BYTES`] partial to the server from every
    /// aggregator that serves the round: all of them, or under a failover
    /// map only those serving their own shard — an outaged aggregator's
    /// members were re-homed to its successor, whose merged partial is the
    /// one sent. A flat network has no aggregators and ships nothing.
    pub fn send_partials(&mut self) {
        for k in 0..self.aggregators as u32 {
            if self.rehome_map().is_none_or(|map| map[k as usize] == k) {
                self.send_aggregator_to_server(k, EMBEDDING_BYTES);
            }
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices
    }

    /// Number of edge aggregators (0 on a flat network).
    pub fn num_aggregators(&self) -> usize {
        self.aggregators
    }

    /// Messages logged in the open window — one round's sends, on a flat
    /// and a sharded network alike.
    pub fn ledger_entries(&self) -> usize {
        self.window.len()
    }

    /// Bytes the ledger holds: the window's
    /// [`SimNetwork::ledger_entries`] logged messages.
    pub fn bytes(&self) -> usize {
        self.window.len() * std::mem::size_of::<(u32, u32, u64)>()
    }

    /// Records a message from device `from` to device `to`, or — with `to`
    /// = [`SimNetwork::SERVER`] — its upload to the aggregation point:
    /// straight to the server on a flat network, to the sender's
    /// aggregator on a sharded one (the server then hears only the
    /// partials of [`SimNetwork::send_partials`]). The window logs it
    /// either way, and charges the sender one message and `bytes`.
    ///
    /// # Panics
    /// Panics if `from`, or `to` other than the server, is no device.
    pub fn send(&mut self, from: u32, to: u32, bytes: u64) {
        let n = self.devices;
        assert!(
            (from as usize) < n && ((to as usize) < n || to == Self::SERVER),
            "send({from} → {to}) names a device outside the {n}-device fleet"
        );
        if to == Self::SERVER && self.aggregators == 0 {
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
    /// counters, not in any device's or the window — so per-round server
    /// traffic is O(aggregators) by construction.
    ///
    /// # Panics
    /// Panics on a flat network, or if `shard` is no aggregator.
    pub fn send_aggregator_to_server(&mut self, shard: u32, bytes: u64) {
        assert!(
            (shard as usize) < self.aggregators,
            "send_aggregator_to_server requires a sharded network with aggregator {shard}"
        );
        self.server_received += 1;
        self.server_bytes_received += bytes;
    }

    /// Marks a synchronization round (all devices advance together — the
    /// paper's synchronous federation, §IV-B).
    pub fn round(&mut self) {
        self.rounds += 1;
    }

    /// Device-to-device plus device-to-server messages so far: the closed
    /// windows' and the open one's.
    pub fn total_messages(&self) -> u64 {
        self.closed_messages + self.window.len() as u64
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

    /// Opens a ledger window and returns its snapshot: the id of the
    /// window whose message log starts empty here. Every window reader
    /// takes the snapshot of the window still open.
    pub fn snapshot(&mut self) -> NetworkSnapshot {
        self.closed_messages += self.window.len() as u64;
        self.window.clear();
        self.window_id += 1;
        NetworkSnapshot {
            window: self.window_id,
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

    /// Per-device messages and payload bytes sent since a snapshot, as
    /// `(messages, bytes)`, in one pass over the window. Aggregator
    /// partials are no device's.
    ///
    /// # Panics
    /// Panics if `snap` is not the open window's (as do all window
    /// readers).
    pub fn sent_since(&self, snap: &NetworkSnapshot) -> (Vec<u64>, Vec<u64>) {
        self.check_window(snap);
        let mut messages = vec![0; self.devices];
        let mut bytes = vec![0; self.devices];
        for &(from, _, b) in &self.window {
            messages[from as usize] += 1;
            bytes[from as usize] += b;
        }
        (messages, bytes)
    }

    /// Every receiver's inbound `(sender, bytes)` list since a snapshot,
    /// for all devices in one deterministic pass, as one offset-indexed
    /// buffer: device `d`'s list is `lists[start[d]..start[d + 1]]` (the
    /// per-destination timing input [`crate::ledger_work`] hands to
    /// `lumos-sim`). Each list is sorted by sender, one entry per sender
    /// with its bytes summed; zero-byte senders are left out, and so are
    /// server-bound messages.
    pub(crate) fn received_since(&self, snap: &NetworkSnapshot) -> (Vec<usize>, Vec<(u32, u64)>) {
        self.check_window(snap);
        // Counting sort of the log by receiver: receiver `to`'s messages
        // are `lists[start[to]..start[to + 1]]`, in send order. A zero-byte
        // message adds nothing to its sender's sum, so it is never listed.
        let n = self.devices;
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

/// The ledger window a reader may read ([`SimNetwork::snapshot`]).
#[derive(Debug, Clone)]
pub struct NetworkSnapshot {
    /// The window this snapshot opened.
    window: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_accounting() {
        let mut net = SimNetwork::new(3);
        let snap = net.snapshot();
        net.send(0, 1, 100);
        net.send(0, 2, 50);
        net.send(2, 0, 10);
        net.send_to_server(1, 4);
        net.round();
        assert_eq!(net.sent_since(&snap), (vec![2, 1, 1], vec![150, 4, 10]));
        let work = crate::ledger_work(&net, &snap, &[0; 3], 1);
        assert_eq!(work.inbound(0), [(2, 10)]);
        assert_eq!(work.inbound(1), [(0, 100)]);
        assert_eq!(work.inbound(2), [(0, 50)]);
        assert_eq!(net.total_messages(), 4);
        assert_eq!(net.rounds(), 1);
        assert_eq!(net.server_received(), 1);
        assert_eq!(net.server_bytes_received(), 4);
    }

    #[test]
    fn snapshot_differencing() {
        let mut net = SimNetwork::new(2);
        net.send(0, 1, 8);
        let before = net.total_messages();
        let snap = net.snapshot();
        net.send(0, 1, 8);
        net.send(1, 0, 8);
        assert_eq!(net.sent_since(&snap), (vec![1, 1], vec![8, 8]));
        // The closed window's message still counts toward the run's total.
        assert_eq!(net.total_messages() - before, 2);
        let work = crate::ledger_work(&net, &snap, &[0; 2], 1);
        assert_eq!((work.bytes_in(0), work.bytes_in(1)), (8, 8));
    }

    #[test]
    fn sharded_ledger_routes_through_aggregators_and_logs_its_window() {
        // 4 devices across 2 shards. Device uploads land on the
        // aggregators; the server only hears their partials.
        let mut net = SimNetwork::new_sharded(vec![0, 0, 1, 1]);
        assert_eq!(net.num_aggregators(), 2);
        let snap = net.snapshot();
        for d in 0..4 {
            net.send(d, SimNetwork::SERVER, 64);
        }
        net.send(0, 2, 8);
        assert_eq!(net.server_received(), 0, "uploads stop at the aggregators");
        net.send_partials();
        net.round();
        // Server traffic is O(aggregators): 2 messages, not 4.
        assert_eq!(net.server_received(), 2);
        assert_eq!(net.server_bytes_received(), 128);
        // Device totals still price each upload at the sender.
        assert_eq!(
            net.sent_since(&snap),
            (vec![2, 1, 1, 1], vec![72, 64, 64, 64])
        );
        assert_eq!(net.total_messages(), 5);
        // The window logs the five device sends, as a flat one would; the
        // partials are the aggregators', not a device's.
        assert_eq!(net.ledger_entries(), 5);
        assert_eq!(
            crate::ledger_work(&net, &snap, &[0; 4], 1).inbound(2),
            [(0, 8)]
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
        net.send_partials();
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
        assert_eq!(net.rehome_map(), Some(&[1, 1][..]));
        let snap = net.snapshot();
        for d in 0..4 {
            net.send(d, SimNetwork::SERVER, 64);
        }
        net.send_partials();
        assert_eq!(net.server_received(), 1);
        assert_eq!(net.server_bytes_received(), 64);
        // Senders still pay full price for their uploads.
        assert_eq!(net.sent_since(&snap), (vec![1; 4], vec![64; 4]));
        // Clearing the map restores home routing: both aggregators serve.
        net.set_rehome(None);
        assert_eq!(net.rehome_map(), None);
        net.send(0, SimNetwork::SERVER, 64);
        net.send_partials();
        assert_eq!(net.server_received(), 3);
    }

    #[test]
    #[should_panic(expected = "disagree on aggregator count")]
    fn mis_sized_failover_map_panics() {
        SimNetwork::new_sharded(vec![0, 1]).set_rehome(Some(vec![0]));
    }

    #[test]
    #[should_panic(expected = "outside the 3-device fleet")]
    fn a_send_from_outside_the_fleet_panics() {
        SimNetwork::new(3).send(3, 0, 8);
    }

    #[test]
    #[should_panic(expected = "outside the 3-device fleet")]
    fn a_send_to_outside_the_fleet_panics() {
        SimNetwork::new(3).send(0, 3, 8);
    }

    #[test]
    fn per_edge_ledger_tracks_each_sender_separately() {
        // The tentpole regression: aggregate per-device totals cannot tell
        // a receiver *who* its bytes came from. The window log can.
        let mut net = SimNetwork::new(3);
        net.send(0, 2, 100);
        let snap = net.snapshot();
        net.send(1, 2, 7);
        net.send(0, 2, 40);
        net.send(0, 2, 2);
        net.send_to_server(2, 1);
        // The window opened after the first 100 bytes: they are not in it.
        let inbound = crate::ledger_work(&net, &snap, &[0; 3], 1);
        assert_eq!(inbound.inbound(2), [(0, 42), (1, 7)]);
        assert_eq!(inbound.bytes_in(2), 49);
        assert!(inbound.inbound(0).is_empty() && inbound.inbound(1).is_empty());
        // The window logs messages, not distinct edges.
        assert_eq!(net.ledger_entries(), 4);
    }
}
