//! Property tests for the ledger window: whatever is sent, each window's
//! readers answer exactly what a cumulative ledger of the same sends
//! answers — its arithmetic, `BTreeMap` edge totals and per-device
//! counters differenced against a copy taken at the snapshot, is the
//! reference — and a sharded network's window reads exactly as a flat
//! one's: the aggregator tier decides where an upload lands, not what is
//! logged.

use std::collections::BTreeMap;

use proptest::prelude::*;

use lumos_common::rng::Xoshiro256pp;
use lumos_fed::{ledger_work, CostModel, Runtime, SimNetwork, EMBEDDING_BYTES};
use lumos_sim::RoundWork;
use lumos_topo::Topology;

const SERVER: u32 = SimNetwork::SERVER;

/// A cumulative ledger: per-edge `(messages, bytes)` and per-device totals.
#[derive(Default, Clone)]
struct Reference {
    edges: BTreeMap<(u32, u32), (u64, u64)>,
    sent: Vec<u64>,
    bytes_sent: Vec<u64>,
}

impl Reference {
    fn new(n: usize) -> Self {
        Self {
            edges: BTreeMap::new(),
            sent: vec![0; n],
            bytes_sent: vec![0; n],
        }
    }

    fn send(&mut self, from: u32, to: u32, bytes: u64) {
        let e = self.edges.entry((from, to)).or_default();
        e.0 += 1;
        e.1 += bytes;
        self.sent[from as usize] += 1;
        self.bytes_sent[from as usize] += bytes;
    }

    /// Per-device messages and bytes sent since `snap`.
    fn sent_since(&self, snap: &Reference) -> (Vec<u64>, Vec<u64>) {
        (
            minus(&self.sent, &snap.sent),
            minus(&self.bytes_sent, &snap.bytes_sent),
        )
    }

    /// Every receiver's inbound `(sender, bytes)` list since `snap`:
    /// device-bound edges whose bytes moved, bucketed by receiver in key
    /// order — the oracle [`ledger_work`]'s inbound buffer is held to.
    fn received_since(&self, snap: &Reference) -> Vec<Vec<(u32, u64)>> {
        let mut inbound = vec![Vec::new(); self.sent.len()];
        for (&(from, to), &(_, bytes)) in &self.edges {
            let before = snap.edges.get(&(from, to)).map_or(0, |e| e.1);
            if to != SERVER && bytes > before {
                inbound[to as usize].push((from, bytes - before));
            }
        }
        inbound
    }

    /// What closing the window `snap` opened must record: its messages,
    /// its bytes, and the run's message count moving by the first.
    fn epoch_totals(&self, snap: &Reference) -> (u64, u64, u64) {
        let (sent, bytes) = self.sent_since(snap);
        let messages = sent.iter().sum();
        (messages, bytes.iter().sum(), messages)
    }
}

/// Every receiver's inbound slice and byte sum in `work` equal the
/// reference's list and its sum.
fn assert_inbound_is(work: &RoundWork, reference: &[Vec<(u32, u64)>], window: usize) {
    assert_eq!(work.devices().len(), reference.len());
    for (d, list) in reference.iter().enumerate() {
        assert_eq!(
            work.inbound(d),
            list.as_slice(),
            "window {window} device {d}"
        );
        let sum: u64 = list.iter().map(|&(_, b)| b).sum();
        assert_eq!(work.bytes_in(d), sum, "window {window} device {d}");
    }
}

/// The outbound half of `work`: per-device messages and bytes.
fn outbound(work: &RoundWork) -> (Vec<u64>, Vec<u64>) {
    work.devices()
        .iter()
        .map(|w| (w.messages_out, w.bytes_out))
        .unzip()
}

fn minus(now: &[u64], then: &[u64]) -> Vec<u64> {
    now.iter().zip(then).map(|(a, b)| a - b).collect()
}

/// One window of random traffic among `n` devices as `(from, to, bytes)` —
/// device↔device with repeats and self-sends, zero-byte sends, uploads to
/// the server.
fn random_sends(rng: &mut Xoshiro256pp, n: usize) -> Vec<(u32, u32, u64)> {
    let device = |rng: &mut Xoshiro256pp| rng.next_below(n as u64) as u32;
    (0..rng.next_below(48))
        .map(|_| {
            let bytes = if rng.next_below(4) == 0 {
                0
            } else {
                rng.next_below(100)
            };
            let d = device(rng);
            match rng.next_below(4) {
                0 => (d, SERVER, bytes),
                _ => (d, device(rng), bytes),
            }
        })
        .collect()
}

/// Closes one window of `sends` through `rt`: the record's message and
/// byte totals, and how far the run's `total_messages()` moved.
fn closed_epoch(rt: &mut Runtime, sends: &[(u32, u32, u64)]) -> (u64, u64, u64) {
    let before = rt.network.total_messages();
    rt.begin_epoch();
    for &(from, to, bytes) in sends {
        rt.network.send(from, to, bytes);
    }
    let rec = rt.end_epoch(&vec![1; rt.network.num_devices()], 2, None);
    (
        rec.total_messages,
        rec.total_bytes,
        rt.network.total_messages() - before,
    )
}

/// The server's `(messages, bytes)` heard so far.
fn heard(net: &SimNetwork) -> (u64, u64) {
    (net.server_received(), net.server_bytes_received())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Back-to-back windows of random traffic read exactly as the
    /// cumulative ledger's deltas, and close into records of exactly its
    /// totals; the flat network's server hears every upload.
    #[test]
    fn the_window_equals_the_history_it_replaced(
        seed in any::<u64>(), n in 1usize..12, windows in 1usize..6
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut net = SimNetwork::new(n);
        let mut rt = Runtime::new(n, CostModel::default());
        let mut reference = Reference::new(n);
        let nodes = vec![1; n];
        for window in 0..windows {
            let snap = net.snapshot();
            let opened = reference.clone();
            let server_before = heard(&net);
            let sends = random_sends(&mut rng, n);
            for &(from, to, bytes) in &sends {
                net.send(from, to, bytes);
                reference.send(from, to, bytes);
            }
            prop_assert_eq!(net.ledger_entries(), sends.len(), "window {}", window);
            let work = ledger_work(&net, &snap, &nodes, 2);
            assert_inbound_is(&work, &reference.received_since(&opened), window);
            prop_assert_eq!(net.sent_since(&snap), reference.sent_since(&opened));
            prop_assert_eq!(outbound(&work), reference.sent_since(&opened));
            prop_assert_eq!(
                closed_epoch(&mut rt, &sends),
                reference.epoch_totals(&opened),
                "window {}",
                window
            );
            let uploads = sends.iter().filter(|&&(_, to, _)| to == SERVER);
            let server_now = heard(&net);
            prop_assert_eq!(
                (server_now.0 - server_before.0, server_now.1 - server_before.1),
                (uploads.clone().count() as u64, uploads.map(|&(_, _, b)| b).sum()),
                "window {}",
                window
            );
        }
    }

    /// The same random windows replayed on a flat network and on a sharded
    /// one — a random shard vector, a random outage set per window —
    /// answer every window reader identically, and close into records of
    /// the same totals: an aggregator's partial is no device's message.
    /// Per window, the server hears exactly one partial from each
    /// aggregator that serves the round, and no upload.
    #[test]
    fn a_sharded_window_reads_as_the_flat_one(
        seed in any::<u64>(), n in 1usize..12, windows in 1usize..6
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let k = 1 + rng.next_below(n as u64);
        let shard_of: Vec<u32> = (0..n).map(|_| rng.next_below(k) as u32).collect();
        let mut flat = SimNetwork::new(n);
        let mut sharded = SimNetwork::new_sharded(shard_of);
        let aggregators = sharded.num_aggregators();
        let mut rt = Runtime::new(n, CostModel::default());
        rt.set_tier(Topology::contiguous(n, aggregators));
        let mut reference = Reference::new(n);
        let nodes = vec![1; n];
        for window in 0..windows {
            let outaged: Vec<u32> =
                (0..aggregators as u32).filter(|_| rng.next_below(3) == 0).collect();
            // The failover rule depends on the aggregator count alone.
            let rehome = (!outaged.is_empty())
                .then(|| Topology::contiguous(aggregators, aggregators).failover_map(&outaged));
            sharded.set_rehome(rehome.clone());
            rt.network.set_rehome(rehome.clone());
            let serving = rehome
                .as_ref()
                .map_or(aggregators, |map| (0..aggregators).filter(|&s| map[s] as usize == s).count())
                as u64;
            let (flat_snap, snap) = (flat.snapshot(), sharded.snapshot());
            let opened = reference.clone();
            let (server_before, rt_server_before) = (heard(&sharded), heard(&rt.network));
            let sends = random_sends(&mut rng, n);
            for &(from, to, bytes) in &sends {
                flat.send(from, to, bytes);
                sharded.send(from, to, bytes);
                reference.send(from, to, bytes);
            }
            prop_assert_eq!(heard(&sharded), server_before, "uploads stop at the aggregators");
            sharded.send_partials(EMBEDDING_BYTES);

            prop_assert_eq!(sharded.sent_since(&snap), reference.sent_since(&opened));
            prop_assert_eq!(sharded.sent_since(&snap), flat.sent_since(&flat_snap));
            let work = ledger_work(&sharded, &snap, &nodes, 2);
            assert_inbound_is(&work, &reference.received_since(&opened), window);
            prop_assert_eq!(&work, &ledger_work(&flat, &flat_snap, &nodes, 2));
            prop_assert_eq!(sharded.ledger_entries(), flat.ledger_entries());
            prop_assert_eq!(
                closed_epoch(&mut rt, &sends),
                reference.epoch_totals(&opened),
                "window {}",
                window
            );

            for (net, before) in [(&sharded, server_before), (&rt.network, rt_server_before)] {
                let now = heard(net);
                prop_assert_eq!(
                    (now.0 - before.0, now.1 - before.1),
                    (serving, EMBEDDING_BYTES * serving),
                    "window {}",
                    window
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "stale NetworkSnapshot")]
fn reading_a_closed_window_panics() {
    let mut net = SimNetwork::new(2);
    let closed = net.snapshot();
    net.send(0, 1, 8);
    let _open = net.snapshot();
    ledger_work(&net, &closed, &[1, 1], 2);
}
