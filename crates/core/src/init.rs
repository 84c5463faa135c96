//! LDP embedding initialization (§VI-A): the federated feature exchange.
//!
//! Every device `v` one-bit-encodes its feature under budget ε, splits the
//! dimensions into one bin per *recipient* — the devices whose trees contain
//! `v` as a neighbor leaf — and sends each bin to its recipient, who applies
//! the unbiased recovery of Eq. 27. In the untrimmed system the recipients
//! are exactly `v`'s neighbors and the fan-out equals `wl(v)`, matching the
//! paper's formulas verbatim; after trimming the recipient set is
//! `{u : v ∈ N_u}` (the devices that actually kept `v`), preserving the
//! ε-LDP-per-recipient guarantee of Theorem 4.

// BTreeMap, not HashMap: the recovered-feature map sits on the deterministic
// path (pooling reads it per (owner, neighbor) pair), and BTree iteration
// order is a function of the keys alone — no per-instance hash seed.
use std::collections::BTreeMap;
use std::rc::Rc;

use lumos_common::rng::Xoshiro256pp;
use lumos_fed::SimNetwork;
use lumos_ldp::{FeatureEncoder, RecoveredFeature};

use crate::tree::DeviceTree;

/// Result of the federated feature exchange.
#[derive(Debug)]
pub struct LdpExchange {
    /// Recovered feature estimates, `(tree owner u, neighbor v) → x''_v`,
    /// kept as received — packed symbols and the sender's decode table, not
    /// floats — and shared with every batch built from them.
    pub recovered: BTreeMap<(u32, u32), Rc<RecoveredFeature>>,
    /// Total feature messages sent.
    pub messages: u64,
}

impl LdpExchange {
    /// Bytes the memo holds: per pair its key, its shared pointer and the
    /// kept message.
    pub fn bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<((u32, u32), Rc<RecoveredFeature>)>();
        self.recovered
            .values()
            .map(|kept| per_entry + kept.bytes())
            .sum()
    }
}

/// Executes the exchange for every device: the top-up of
/// [`exchange_missing_features`] from an empty exchange, where every
/// retained `(owner, neighbor)` pair is missing.
///
/// `features` is the row-major `[n, dim]` matrix of raw local features in
/// `[0, 1]`; `trees` defines who needs whose feature; `net` records each
/// message.
pub fn exchange_features(
    features: &[f32],
    dim: usize,
    trees: &[DeviceTree],
    epsilon: f64,
    rng: &mut Xoshiro256pp,
    net: &mut SimNetwork,
) -> LdpExchange {
    let mut exchange = LdpExchange {
        recovered: BTreeMap::new(),
        messages: 0,
    };
    let sent = exchange_missing_features(features, dim, trees, epsilon, rng, net, &mut exchange);
    // The initial exchange occupies one ledger round even when every device
    // is isolated; the top-up closes a round only when it sent something.
    if sent == 0 {
        net.round();
    }
    exchange
}

/// Top-up exchange for `(owner, neighbor)` pairs with no recovered estimate
/// yet — the incremental step a live tree migration needs: the receiving
/// device never held the migrated branch, so the neighbor's LDP-encoded
/// feature must cross the wire before the new leaves can pool. Existing
/// estimates are never recomputed (their ε budget is already spent); each
/// sender encodes fresh bins only for the devices newly keeping it,
/// preserving the per-recipient guarantee of Theorem 4. Returns the number
/// of messages sent (also added to `exchange.messages`).
pub fn exchange_missing_features(
    features: &[f32],
    dim: usize,
    trees: &[DeviceTree],
    epsilon: f64,
    rng: &mut Xoshiro256pp,
    net: &mut SimNetwork,
    exchange: &mut LdpExchange,
) -> u64 {
    let n = trees.len();
    assert_eq!(features.len(), n * dim, "feature matrix shape mismatch");

    // Recipient sets: u needs v's feature iff v is a retained neighbor in
    // u's tree and u holds no estimate of it yet.
    let mut recipients: Vec<Vec<u32>> = vec![Vec::new(); n];
    for tree in trees {
        for &v in &tree.neighbors {
            if !exchange.recovered.contains_key(&(tree.center, v)) {
                recipients[v as usize].push(tree.center);
            }
        }
    }

    // Wire cost of one binned message: each transmitted element carries its
    // 2-bit symbol plus a dimension index.
    let index_bits = (usize::BITS - (dim.max(2) - 1).leading_zeros()) as u64;
    let mut messages = 0u64;
    for v in 0..n as u32 {
        let recv = &recipients[v as usize];
        if recv.is_empty() {
            continue;
        }
        let fan_out = recv.len();
        let encoder = FeatureEncoder::new(epsilon, fan_out, dim);
        let feature = &features[v as usize * dim..(v as usize + 1) * dim];
        let msgs = encoder.encode_binned(feature, rng);
        for (&u, msg) in recv.iter().zip(msgs) {
            let elems = msg.transmitted() as u64;
            let bytes = (elems * (2 + index_bits)).div_ceil(8);
            net.send(v, u, bytes);
            messages += 1;
            exchange
                .recovered
                .insert((u, v), Rc::new(encoder.receive(msg)));
        }
    }
    if messages > 0 {
        net.round();
    }
    exchange.messages += messages;
    messages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::LocalGraphKind;

    /// The estimate `owner` holds of `neighbor`'s feature, decoded.
    fn decoded(ex: &LdpExchange, owner: u32, neighbor: u32) -> Option<Vec<f32>> {
        ex.recovered
            .get(&(owner, neighbor))
            .map(|kept| kept.decoded())
    }

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(12)
    }

    /// Triangle where everyone keeps everyone: 6 messages.
    #[test]
    fn exchange_covers_every_tree_leaf() {
        let trees: Vec<DeviceTree> = vec![
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 0, vec![1, 2]),
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 1, vec![0, 2]),
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 2, vec![0, 1]),
        ];
        let dim = 8;
        let features: Vec<f32> = (0..3 * dim).map(|i| (i % 10) as f32 / 10.0).collect();
        let mut net = SimNetwork::new(3);
        let ex = exchange_features(&features, dim, &trees, 2.0, &mut rng(), &mut net);
        assert_eq!(ex.messages, 6);
        assert_eq!(net.total_messages(), 6);
        for tree in &trees {
            for &v in &tree.neighbors {
                let rec = decoded(&ex, tree.center, v)
                    .expect("every neighbor leaf must have a recovered feature");
                assert_eq!(rec.len(), dim);
                assert!(rec.iter().all(|x| x.is_finite()));
            }
        }
    }

    /// Asymmetric trimming: only device 0 keeps the edge. The fan-out of
    /// vertex 1 is one, and vertex 0 sends nothing.
    #[test]
    fn asymmetric_assignment_sends_one_direction() {
        let trees = vec![
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 0, vec![1]),
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 1, vec![]),
        ];
        let dim = 4;
        let features = vec![0.5f32; 2 * dim];
        let mut net = SimNetwork::new(2);
        let snap = net.snapshot();
        let ex = exchange_features(&features, dim, &trees, 1.0, &mut rng(), &mut net);
        assert_eq!(ex.messages, 1);
        assert!(ex.recovered.contains_key(&(0, 1)));
        assert!(!ex.recovered.contains_key(&(1, 0)));
        assert_eq!(net.sent_since(&snap).0, [0, 1]);
    }

    /// With a large budget, recovered features track the truth on the
    /// transmitted dimensions and equal 0.5 elsewhere.
    #[test]
    fn recovery_tracks_features_at_high_budget() {
        let trees = vec![
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 0, vec![1]),
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 1, vec![0]),
        ];
        let dim = 16;
        let mut features = vec![0.0f32; 2 * dim];
        // Vertex 1's feature: all ones.
        for i in 0..dim {
            features[dim + i] = 1.0;
        }
        let mut net = SimNetwork::new(2);
        // Large ε ⇒ bits nearly always match the truth.
        let ex = exchange_features(&features, dim, &trees, 2000.0, &mut rng(), &mut net);
        let rec = decoded(&ex, 0, 1).expect("device 0 keeps vertex 1");
        // Transmitted dims decode near 1; missing dims decode exactly 0.5.
        let mut sent = 0;
        for x in rec {
            if (x - 0.5).abs() < 1e-6 {
                continue;
            }
            sent += 1;
            assert!(x > 0.9, "high-budget recovery should be near 1, got {x}");
        }
        assert!(sent > 0, "at least one dim must be transmitted");
    }

    #[test]
    fn missing_pair_top_up_fills_only_the_gaps() {
        // Initial trees: only device 0 keeps the 0–1 edge.
        let trees = vec![
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 0, vec![1]),
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 1, vec![]),
        ];
        let dim = 4;
        let features = vec![0.5f32; 2 * dim];
        let mut net = SimNetwork::new(2);
        let mut ex = exchange_features(&features, dim, &trees, 1.0, &mut rng(), &mut net);
        assert_eq!(ex.messages, 1);
        let before = decoded(&ex, 0, 1);
        assert!(before.is_some());
        // Migration hands the edge to device 1: its tree now needs vertex
        // 0's feature, which never crossed the wire.
        let migrated = vec![
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 0, vec![1]),
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 1, vec![0]),
        ];
        let sent = exchange_missing_features(
            &features,
            dim,
            &migrated,
            1.0,
            &mut rng(),
            &mut net,
            &mut ex,
        );
        assert_eq!(sent, 1, "only the new pair is exchanged");
        assert_eq!(ex.messages, 2);
        assert!(ex.recovered.contains_key(&(1, 0)));
        // The pre-existing estimate is untouched — its budget was spent.
        assert_eq!(decoded(&ex, 0, 1), before);
        // Running it again is a no-op: nothing is missing anymore.
        let again = exchange_missing_features(
            &features,
            dim,
            &migrated,
            1.0,
            &mut rng(),
            &mut net,
            &mut ex,
        );
        assert_eq!(again, 0);
    }

    #[test]
    fn isolated_devices_are_silent() {
        let trees = vec![DeviceTree::build(
            LocalGraphKind::VirtualNodeTree,
            0,
            vec![],
        )];
        let features = vec![0.3f32; 8];
        let mut net = SimNetwork::new(1);
        let ex = exchange_features(&features, 8, &trees, 1.0, &mut rng(), &mut net);
        assert_eq!(ex.messages, 0);
        assert!(ex.recovered.is_empty());
    }
}
