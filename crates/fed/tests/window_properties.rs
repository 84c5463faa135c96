//! Property tests for the ledger window: whatever is sent, each window's
//! readers answer exactly what the cumulative per-edge ledger it replaced
//! answered — that ledger's arithmetic, a `BTreeMap` of edge totals
//! differenced against a copy taken at the snapshot, is the reference — and
//! a sharded network's window reads exactly as a flat one's: the aggregator
//! tier decides where an upload lands, not what is logged.

use std::collections::BTreeMap;

use proptest::prelude::*;

use lumos_common::rng::Xoshiro256pp;
use lumos_fed::{ledger_work, EdgeTraffic, SimNetwork};
use lumos_topo::Topology;

const SERVER: u32 = SimNetwork::SERVER;

/// The replaced ledger: cumulative per-edge and per-device totals.
#[derive(Default, Clone)]
struct Reference {
    edges: BTreeMap<(u32, u32), EdgeTraffic>,
    sent: Vec<u64>,
    bytes_sent: Vec<u64>,
    bytes_received: Vec<u64>,
}

impl Reference {
    fn new(n: usize) -> Self {
        Self {
            edges: BTreeMap::new(),
            sent: vec![0; n],
            bytes_sent: vec![0; n],
            bytes_received: vec![0; n],
        }
    }

    fn send(&mut self, from: u32, to: u32, bytes: u64) {
        let e = self.edges.entry((from, to)).or_default();
        e.messages += 1;
        e.bytes += bytes;
        if from != SERVER {
            self.sent[from as usize] += 1;
            self.bytes_sent[from as usize] += bytes;
        }
        if to != SERVER {
            self.bytes_received[to as usize] += bytes;
        }
    }

    /// The old `sent_matrix_since`: every edge whose totals moved.
    fn sent_matrix_since(&self, snap: &Reference) -> Vec<((u32, u32), EdgeTraffic)> {
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

    /// The old `received_matrix_since`: device-bound edges that carried
    /// bytes, bucketed by receiver in key order.
    fn received_matrix_since(&self, snap: &Reference) -> Vec<Vec<(u32, u64)>> {
        let mut inbound = vec![Vec::new(); self.sent.len()];
        for ((from, to), e) in self.sent_matrix_since(snap) {
            if to != SERVER && e.bytes > 0 {
                inbound[to as usize].push((from, e.bytes));
            }
        }
        inbound
    }
}

fn minus(now: &[u64], then: &[u64]) -> Vec<u64> {
    now.iter().zip(then).map(|(a, b)| a - b).collect()
}

/// One window of random traffic among `n` devices as `(from, to, bytes)` —
/// device↔device with repeats and self-sends, zero-byte sends, the server
/// at either end.
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
                1 => (SERVER, d, bytes),
                _ => (d, device(rng), bytes),
            }
        })
        .collect()
}

fn apply(net: &mut SimNetwork, (from, to, bytes): (u32, u32, u64)) {
    if from == SERVER {
        net.send_from_server(to, bytes);
    } else {
        net.send(from, to, bytes);
    }
}

fn shard_tallies(net: &SimNetwork, tally: fn(&SimNetwork, u32) -> EdgeTraffic) -> Vec<EdgeTraffic> {
    (0..net.num_aggregators() as u32)
        .map(|k| tally(net, k))
        .collect()
}

fn total(tallies: impl IntoIterator<Item = EdgeTraffic>) -> EdgeTraffic {
    tallies
        .into_iter()
        .fold(EdgeTraffic::default(), |acc, e| EdgeTraffic {
            messages: acc.messages + e.messages,
            bytes: acc.bytes + e.bytes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Back-to-back windows of random traffic read exactly as the
    /// cumulative ledger's deltas.
    #[test]
    fn the_window_equals_the_history_it_replaced(
        seed in any::<u64>(), n in 1usize..12, windows in 1usize..6
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut net = SimNetwork::new(n);
        let mut reference = Reference::new(n);
        for window in 0..windows {
            let snap = net.snapshot();
            let opened = reference.clone();
            let sends = random_sends(&mut rng, n);
            for &(from, to, bytes) in &sends {
                apply(&mut net, (from, to, bytes));
                reference.send(from, to, bytes);
            }
            prop_assert_eq!(net.ledger_entries(), sends.len(), "window {}", window);
            prop_assert_eq!(
                net.received_matrix_since(&snap),
                reference.received_matrix_since(&opened),
                "window {}",
                window
            );
            prop_assert_eq!(
                net.sent_matrix_since(&snap),
                reference.sent_matrix_since(&opened),
                "window {}",
                window
            );
            prop_assert_eq!(net.sent_since(&snap), minus(&reference.sent, &opened.sent));
            prop_assert_eq!(
                net.bytes_sent_since(&snap),
                minus(&reference.bytes_sent, &opened.bytes_sent)
            );
            prop_assert_eq!(
                net.bytes_received_since(&snap),
                minus(&reference.bytes_received, &opened.bytes_received)
            );
        }
    }

    /// The same random windows replayed on a flat network and on a sharded
    /// one — a random shard vector, a random outage set per window —
    /// answer every per-device and per-edge reader identically. Per window,
    /// the shard tallies take exactly the window's server-bound sends, an
    /// outaged aggregator's tallies stay flat, and the server hears exactly
    /// the partials the aggregators sent.
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
        let nodes = vec![1; n];
        for window in 0..windows {
            let outaged: Vec<u32> =
                (0..aggregators as u32).filter(|_| rng.next_below(3) == 0).collect();
            // The failover rule depends on the aggregator count alone.
            let rehome = (!outaged.is_empty())
                .then(|| Topology::contiguous(aggregators, aggregators).failover_map(&outaged));
            sharded.set_rehome(rehome.clone());
            let (up, down) = (
                shard_tallies(&sharded, SimNetwork::shard_up),
                shard_tallies(&sharded, SimNetwork::shard_down),
            );
            let (flat_snap, snap) = (flat.snapshot(), sharded.snapshot());
            let sends = random_sends(&mut rng, n);
            for &send in &sends {
                apply(&mut flat, send);
                apply(&mut sharded, send);
            }
            sharded.send_partials(64);

            prop_assert_eq!(sharded.sent_since(&snap), flat.sent_since(&flat_snap));
            prop_assert_eq!(sharded.bytes_sent_since(&snap), flat.bytes_sent_since(&flat_snap));
            prop_assert_eq!(
                sharded.bytes_received_since(&snap),
                flat.bytes_received_since(&flat_snap)
            );
            prop_assert_eq!(
                sharded.received_matrix_since(&snap),
                flat.received_matrix_since(&flat_snap),
                "window {}",
                window
            );
            prop_assert_eq!(
                sharded.sent_matrix_since(&snap),
                flat.sent_matrix_since(&flat_snap),
                "window {}",
                window
            );
            prop_assert_eq!(
                ledger_work(&sharded, &snap, &nodes, 2),
                ledger_work(&flat, &flat_snap, &nodes, 2)
            );
            prop_assert_eq!(sharded.ledger_entries(), flat.ledger_entries());

            let uploads = total(
                sends
                    .iter()
                    .filter(|&&(_, to, _)| to == SERVER)
                    .map(|&(_, _, bytes)| EdgeTraffic { messages: 1, bytes }),
            );
            let (up_now, down_now) = (
                shard_tallies(&sharded, SimNetwork::shard_up),
                shard_tallies(&sharded, SimNetwork::shard_down),
            );
            let delta = |now: &[EdgeTraffic], then: &[EdgeTraffic]| {
                total(now.iter().zip(then).map(|(a, b)| EdgeTraffic {
                    messages: a.messages - b.messages,
                    bytes: a.bytes - b.bytes,
                }))
            };
            prop_assert_eq!(delta(&up_now, &up), uploads, "window {}", window);
            for (shard, &serves) in rehome.iter().flatten().enumerate() {
                if serves as usize != shard {
                    prop_assert_eq!(up_now[shard], up[shard], "outaged shard {}", shard);
                    prop_assert_eq!(down_now[shard], down[shard], "outaged shard {}", shard);
                }
            }
            prop_assert_eq!(
                sharded.server_bytes_received(),
                total(down_now.iter().copied()).bytes
            );
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
    net.received_matrix_since(&closed);
}
