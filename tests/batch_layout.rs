//! The compact batch is the dense batch: `FeatureRows::to_tensor()` reproduces,
//! bit for bit, the `[total_nodes, dim]` matrix `build_batched` filled before
//! the batch stopped storing floats. The pins are FNV-1a digests of that
//! matrix (shape, then every value's bits) taken at the last commit that
//! materialised it.

use lumos::balance::{rebalance_assignment, Assignment, CompareBackend, SecurityMode};
use lumos::common::rng::Xoshiro256pp;
use lumos::core::init::exchange_missing_features;
use lumos::core::{
    build_batched, build_compact, construct_assignment, exchange_features, DeviceTree, LdpExchange,
    LocalGraphKind, TreeNode,
};
use lumos::data::{Dataset, Scale};
use lumos::fed::SimNetwork;
use lumos::tensor::{RowOperand, Tensor};

const EPSILON: f64 = 2.0;

fn fnv(t: &Tensor) -> u64 {
    let (r, c) = t.dims();
    let values = t.data().iter().map(|x| u64::from(x.to_bits()));
    [r as u64, c as u64]
        .into_iter()
        .chain(values)
        .fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn trees(kind: LocalGraphKind, a: &Assignment) -> Vec<DeviceTree> {
    (0..a.num_devices() as u32)
        .map(|v| DeviceTree::build(kind, v, a.kept(v).to_vec()))
        .collect()
}

fn assignment(ds: &Dataset) -> Assignment {
    let mode = SecurityMode::CostModel;
    construct_assignment(&ds.graph, true, 20, mode, CompareBackend::Scalar, 7, None).0
}

/// The exchange over `trees` on a fresh ledger, with the RNG it left behind.
fn exchange(ds: &Dataset, trees: &[DeviceTree]) -> (LdpExchange, Xoshiro256pp, SimNetwork) {
    let mut net = SimNetwork::new(ds.num_nodes());
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let ex = exchange_features(
        &ds.features,
        ds.feature_dim,
        trees,
        EPSILON,
        &mut rng,
        &mut net,
    );
    (ex, rng, net)
}

/// Digest of the batch's features, read both ways.
fn batch_digest(ds: &Dataset, trees: &[DeviceTree], ex: &LdpExchange) -> u64 {
    let compact = build_compact(trees, &ds.features, ds.feature_dim, ex);
    let dense = build_batched(trees, &ds.features, ds.feature_dim, ex);
    let written = compact.features.to_tensor();
    assert_eq!(written.dims(), (compact.total_nodes(), ds.feature_dim));
    assert_eq!(fnv(&written), fnv(&dense.features));
    // What the rows say of themselves is what they write out: the virtual
    // nodes, and only they, are named all-zero, and every centre leaf after
    // its tree's first names an earlier row with its bits.
    let x = &compact.features;
    let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut scratch = vec![0.0; ds.feature_dim];
    let (mut zero, mut repeats) = (0, 0);
    for r in 0..compact.total_nodes() {
        zero += usize::from(x.row(r, &mut scratch).is_none());
        if let Some(first) = x.alias(r) {
            assert!(first < r);
            assert_eq!(bits(written.row(r)), bits(written.row(first)), "row {r}");
            repeats += 1;
        }
    }
    assert_eq!(zero, compact.total_nodes() - compact.pool_leaves.len());
    let centres = trees
        .iter()
        .flat_map(|t| &t.nodes)
        .filter(|n| matches!(n, TreeNode::CenterLeaf(_) | TreeNode::EgoCenter))
        .count();
    assert_eq!(repeats, centres - trees.len());
    fnv(&written)
}

#[test]
fn compact_batches_write_out_to_the_pinned_dense_batches() {
    let pins = [
        (
            Scale::Smoke,
            0x112d_a402_89ef_e121u64,
            0xa3d2_1cae_4f07_2151u64,
            (183, 89, 0xa166_26ca_8736_2762u64),
        ),
        (
            Scale::Small,
            0x79d1_f565_81b9_830d,
            0x851a_46e0_f60d_ddd9,
            (752, 468, 0xfc2c_8977_62e8_60ed),
        ),
    ];
    for (scale, virtual_nodes, raw_ego, (moved, sent, regrown)) in pins {
        let ds = Dataset::facebook_like(scale);
        let mut a = assignment(&ds);
        for (kind, pin) in [
            (LocalGraphKind::VirtualNodeTree, virtual_nodes),
            (LocalGraphKind::RawEgoNetwork, raw_ego),
        ] {
            let t = trees(kind, &a);
            let (ex, _, _) = exchange(&ds, &t);
            assert_eq!(batch_digest(&ds, &t, &ex), pin, "{scale:?} {kind:?}");
        }

        // A migration, the top-up exchange for the pairs it created, and the
        // batch rebuilt from the topped-up memo — what `Forest::regrow` does.
        let t = trees(LocalGraphKind::VirtualNodeTree, &a);
        let (mut ex, mut rng, mut net) = exchange(&ds, &t);
        let n = ds.num_nodes();
        let prices: Vec<u64> = (0..n as u64).map(|d| 1 + (d * 7919) % 13).collect();
        let overloaded: Vec<u32> = (0..n as u32).filter(|d| d % 5 == 0).collect();
        let outcome = rebalance_assignment(&mut a, &prices, &overloaded);
        assert_eq!(outcome.moved_nodes, moved);
        let t = trees(LocalGraphKind::VirtualNodeTree, &a);
        let topped_up = exchange_missing_features(
            &ds.features,
            ds.feature_dim,
            &t,
            EPSILON,
            &mut rng,
            &mut net,
            &mut ex,
        );
        assert_eq!(topped_up, sent);
        assert_eq!(batch_digest(&ds, &t, &ex), regrown, "{scale:?} regrown");
    }
}

#[test]
fn lonely_ego_centres_write_out_to_the_pinned_dense_batch() {
    // Every third device keeps nobody: a one-node `EgoCenter` tree among
    // ordinary stars.
    let ds = Dataset::facebook_like(Scale::Smoke);
    let a = assignment(&ds);
    let t: Vec<DeviceTree> = (0..ds.num_nodes() as u32)
        .map(|v| {
            let kept = if v % 3 == 0 {
                Vec::new()
            } else {
                a.kept(v).to_vec()
            };
            DeviceTree::build(LocalGraphKind::RawEgoNetwork, v, kept)
        })
        .collect();
    let (ex, _, _) = exchange(&ds, &t);
    assert_eq!(batch_digest(&ds, &t, &ex), 0x1880_99b4_ad6d_61bd);
}
