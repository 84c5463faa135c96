//! Property tests for the ledger window: whatever is sent, each window's
//! readers answer exactly what the cumulative per-edge ledger it replaced
//! answered — that ledger's arithmetic, a `BTreeMap` of edge totals
//! differenced against a copy taken at the snapshot, is the reference.

use std::collections::BTreeMap;

use proptest::prelude::*;

use lumos_common::rng::Xoshiro256pp;
use lumos_fed::{EdgeTraffic, SimNetwork};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Back-to-back windows of random traffic — device↔device with
    /// repeats and self-sends, zero-byte sends, the server at either end —
    /// read exactly as the cumulative ledger's deltas.
    #[test]
    fn the_window_equals_the_history_it_replaced(
        seed in any::<u64>(), n in 1usize..12, windows in 1usize..6
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut net = SimNetwork::new(n);
        let mut reference = Reference::new(n);
        let device = |rng: &mut Xoshiro256pp| rng.next_below(n as u64) as u32;
        for window in 0..windows {
            let snap = net.snapshot();
            let opened = reference.clone();
            let sends = rng.next_below(48) as usize;
            for _ in 0..sends {
                let bytes = if rng.next_below(4) == 0 { 0 } else { rng.next_below(100) };
                let from = device(&mut rng);
                match rng.next_below(4) {
                    0 => {
                        net.send_to_server(from, bytes);
                        reference.send(from, SERVER, bytes);
                    }
                    1 => {
                        net.send_from_server(from, bytes);
                        reference.send(SERVER, from, bytes);
                    }
                    _ => {
                        let to = device(&mut rng);
                        net.send(from, to, bytes);
                        reference.send(from, to, bytes);
                    }
                }
            }
            prop_assert_eq!(net.ledger_entries(), sends, "window {}", window);
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
