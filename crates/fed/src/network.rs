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

/// Compact per-shard ledger used by hierarchical topologies.
///
/// The flat ledger's window log holds one entry per message of the open
/// round: O(edges) at 10⁵–10⁶ devices. The sharded ledger keeps no log,
/// only two O(aggregators) tally arrays —
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
    /// `Some` switches the ledger into compact sharded mode: device-to-
    /// device messages keep their per-device tallies but skip the
    /// window log, and aggregator traffic is tallied per shard.
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
            window: Vec::new(),
            window_id: 0,
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
    /// O(devices + aggregators) — no window log is kept, so inbound
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
    /// actually hold: the open window's logged messages in flat mode, the
    /// two per-shard tally arrays in sharded mode.
    pub fn ledger_entries(&self) -> usize {
        match &self.sharded {
            Some(s) => s.up.len() + s.down.len(),
            None => self.window.len(),
        }
    }

    /// Bytes the ledger holds: the per-device tallies and its
    /// [`SimNetwork::ledger_entries`] (a logged message and a shard tally
    /// are both 16 bytes).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.devices.len() * size_of::<DeviceTraffic>()
            + self.ledger_entries() * size_of::<(u32, u32, u64)>()
    }

    fn log(&mut self, from: u32, to: u32, bytes: u64) {
        // Sharded mode keeps no window log — that's the whole point.
        if self.sharded.is_none() {
            self.window.push((from, to, bytes));
        }
    }

    /// Records a device-to-device message.
    pub fn send(&mut self, from: u32, to: u32, bytes: u64) {
        let d = &mut self.devices[from as usize];
        d.sent += 1;
        d.bytes_sent += bytes;
        let r = &mut self.devices[to as usize];
        r.received += 1;
        r.bytes_received += bytes;
        self.log(from, to, bytes);
    }

    /// Records a device-to-server message.
    pub fn send_to_server(&mut self, from: u32, bytes: u64) {
        let d = &mut self.devices[from as usize];
        d.sent += 1;
        d.bytes_sent += bytes;
        self.server_received += 1;
        self.server_bytes_received += bytes;
        self.log(from, Self::SERVER, bytes);
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
        self.log(Self::SERVER, to, bytes);
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

    /// Average messages sent per device (Fig. 8a's y-axis when divided by
    /// epochs).
    pub fn avg_sent_per_device(&self) -> f64 {
        if self.devices.is_empty() {
            0.0
        } else {
            self.devices.iter().map(|d| d.sent).sum::<u64>() as f64 / self.devices.len() as f64
        }
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
    /// totals, sorted by `(from, to)` (empty in sharded mode).
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

    /// Per-receiver inbound `(sender, bytes)` lists since a snapshot, for
    /// all devices in one deterministic pass (the per-destination timing
    /// input [`crate::ledger_work`] hands to `lumos-sim`). Each list is
    /// sorted by sender ([`SimNetwork::SERVER`] last), one entry per
    /// sender with its bytes summed; zero-byte senders are left out, and
    /// so are server-bound messages.
    pub fn received_matrix_since(&self, snap: &NetworkSnapshot) -> Vec<Vec<(u32, u64)>> {
        self.check_window(snap);
        // Counting sort of the log by receiver: receiver `to`'s messages
        // are `runs[start[to]..start[to + 1]]`, in send order.
        let n = self.devices.len();
        let to_device = self.window.iter().filter(|&&(_, to, _)| to != Self::SERVER);
        let mut start = vec![0usize; n + 1];
        for &(_, to, _) in to_device.clone() {
            start[to as usize + 1] += 1;
        }
        for d in 0..n {
            start[d + 1] += start[d];
        }
        let mut fill = start.clone();
        let mut runs = vec![(0u32, 0u64); start[n]];
        for &(from, to, bytes) in to_device {
            let slot = &mut fill[to as usize];
            runs[*slot] = (from, bytes);
            *slot += 1;
        }
        start
            .windows(2)
            .map(|w| {
                let run = &mut runs[w[0]..w[1]];
                run.sort_unstable_by_key(|&(from, _)| from);
                let mut list: Vec<(u32, u64)> = Vec::with_capacity(run.len());
                for &(from, bytes) in &*run {
                    match list.last_mut() {
                        Some((last, sum)) if *last == from => *sum += bytes,
                        _ => list.push((from, bytes)),
                    }
                }
                list.retain(|&(_, bytes)| bytes > 0);
                list
            })
            .collect()
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
        let snap = net.snapshot();
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
        // No window log: memory is the 2×K tallies, however chatty.
        assert_eq!(net.ledger_entries(), 4);
        assert!(net.received_matrix_since(&snap).iter().all(Vec::is_empty));
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
        let inbound = net.received_matrix_since(&snap);
        assert_eq!(inbound[2], vec![(0, 42), (1, 7), (SimNetwork::SERVER, 9)]);
        assert!(inbound[0].is_empty() && inbound[1].is_empty());
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
        for d in 0..3usize {
            let sum: u64 = inbound[d].iter().map(|&(_, b)| b).sum();
            assert_eq!(sum, agg[d], "device {d} inbound totals diverge");
        }
    }
}
