//! Batching every device's tree into one message-passing domain.
//!
//! Each device trains the *same* GNN weights on its own tree (§VI-B); since
//! the simulator executes all devices, it concatenates the trees into one
//! block-diagonal graph and runs message passing once. This is numerically
//! identical to per-device execution — trees are disconnected components —
//! while the POOL layer's cross-device averaging (Eq. 31) becomes a single
//! segment-mean over leaf rows.
//!
//! A batch row is only ever one of three things, and [`FeatureRows`] stores
//! it as that: a virtual node (all zero — nothing), a center leaf (a row of
//! the dataset's own feature matrix — the vertex id), or a neighbor leaf
//! (one-bit-mechanism output — the message as the exchange kept it).

use std::rc::Rc;

use lumos_gnn::MessageGraph;
use lumos_ldp::RecoveredFeature;
use lumos_tensor::{RowOperand, Tensor};

use crate::init::LdpExchange;
use crate::tree::{DeviceTree, TreeNode};

/// What one batch row holds.
#[derive(Debug, Clone)]
enum FeatureRow {
    /// A virtual node (Eq. 25): every feature zero.
    Zero,
    /// A center leaf: row `vertex` of the dataset's feature matrix. `first`
    /// is the batch row of its tree's first center leaf — this row itself,
    /// or the earlier row every later copy repeats.
    Raw { vertex: u32, first: u32 },
    /// A neighbor leaf: the owner's kept estimate of the neighbor's feature.
    Coded(Rc<RecoveredFeature>),
}

/// The batch's initial embeddings `[total_nodes, dim]` (Eq. 25), stored as
/// what each row is rather than as floats: the first-layer products read
/// them through [`RowOperand`], decoding a coded row into scratch, skipping
/// a zero row and re-using the outputs of a repeated center row.
#[derive(Debug)]
pub struct FeatureRows<'a> {
    dim: usize,
    /// The dataset's row-major feature matrix, borrowed.
    raw: &'a [f32],
    rows: Vec<FeatureRow>,
}

impl FeatureRows<'_> {
    /// The rows written out densely: the matrix every product over `self`
    /// equals, bit for bit, a product over.
    pub fn to_tensor(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows.len(), self.dim);
        let mut scratch = vec![0.0; self.dim];
        for r in 0..self.rows.len() {
            if let Some(row) = self.row(r, &mut scratch) {
                out.row_mut(r).copy_from_slice(row);
            }
        }
        out
    }

    /// Bytes the batch itself holds for its features: the per-row index.
    /// The coded rows belong to the exchange's memo and the raw rows to the
    /// dataset; both are counted there.
    pub fn bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<FeatureRow>()
    }
}

impl RowOperand for FeatureRows<'_> {
    fn dims(&self) -> (usize, usize) {
        (self.rows.len(), self.dim)
    }

    fn row<'s>(&'s self, r: usize, scratch: &'s mut [f32]) -> Option<&'s [f32]> {
        match &self.rows[r] {
            FeatureRow::Zero => None,
            FeatureRow::Raw { vertex, .. } => {
                let v = *vertex as usize;
                Some(&self.raw[v * self.dim..(v + 1) * self.dim])
            }
            FeatureRow::Coded(kept) => {
                kept.decode_into(scratch);
                Some(scratch)
            }
        }
    }

    fn alias(&self, r: usize) -> Option<usize> {
        match self.rows[r] {
            FeatureRow::Raw { first, .. } if first as usize != r => Some(first as usize),
            _ => None,
        }
    }
}

/// POOL index arrays for one round's aggregation — shared-ownership copies
/// so a per-round mask can swap them without touching the batch.
#[derive(Debug, Clone)]
pub struct PoolArrays {
    /// Batched node ids to gather (the pooled leaves).
    pub leaves: Rc<Vec<u32>>,
    /// Global vertex each gathered leaf scatters into.
    pub vertices: Rc<Vec<u32>>,
    /// Per-vertex mean coefficients (`1 / contribution` per vertex).
    pub coeff: Rc<Vec<f32>>,
    /// Owning device of each surviving leaf, ascending (trees are laid out
    /// in device order) — the hierarchical POOL slices this per aggregator
    /// shard, so each partial sums exactly its members' leaves.
    pub owners: Rc<Vec<u32>>,
    /// Optional per-leaf scale applied between gather and scatter-add.
    /// `Some` only for fractionally weighted pools (the buffered policy's
    /// staleness blending); `None` keeps the default op sequence — and with
    /// it the default path's bitstream — untouched.
    pub leaf_weights: Option<Rc<Vec<f32>>>,
}

/// The batched forest plus everything the trainer needs. `F` is how the
/// initial embeddings are held: [`FeatureRows`] in a run ([`build_compact`]),
/// a dense [`Tensor`] from [`build_batched`].
#[derive(Debug)]
pub struct BatchedTrees<F = Tensor> {
    /// Message-passing structure over all tree nodes.
    pub mg: MessageGraph,
    /// Initial node embeddings `[total_nodes, dim]` (Eq. 25: leaves carry
    /// features, virtual nodes zero).
    pub features: F,
    /// Batched node ids of all leaves (POOL gather index).
    pub pool_leaves: Rc<Vec<u32>>,
    /// Global vertex of each pooled leaf (POOL scatter index).
    pub pool_vertices: Rc<Vec<u32>>,
    /// `1 / leaf-count` per global vertex (mean-pool weights).
    pub pool_coeff: Rc<Vec<f32>>,
    /// Owning device of each pooled leaf: the center of the tree it lives
    /// in — the device whose round update ships that leaf's embedding.
    pub pool_owners: Rc<Vec<u32>>,
    /// Per-device tree sizes (straggler cost model input).
    pub tree_sizes: Vec<usize>,
    /// Number of global vertices.
    pub num_vertices: usize,
}

impl<F> BatchedTrees<F> {
    /// Total batched nodes.
    pub fn total_nodes(&self) -> usize {
        self.mg.num_nodes
    }

    /// Bytes of everything but the features: the message graph's three arc
    /// arrays, the four POOL arrays and the tree sizes.
    pub fn index_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let mg = &self.mg;
        size_of_val(&mg.src[..])
            + size_of_val(&mg.dst[..])
            + size_of_val(&mg.gcn_coeff[..])
            + size_of_val(&self.pool_leaves[..])
            + size_of_val(&self.pool_vertices[..])
            + size_of_val(&self.pool_coeff[..])
            + size_of_val(&self.pool_owners[..])
            + size_of_val(&self.tree_sizes[..])
    }

    /// POOL arrays with every leaf owned by a `dropped` device removed and
    /// the mean-pool coefficients renormalized over the survivors — the
    /// semi-synchronous deadline's view of Eq. 31, where late updates never
    /// reach the aggregation. A mask is the 0/1 case of
    /// [`BatchedTrees::weighted_pool`]: a vertex whose every contributor
    /// was dropped pools to zero (coefficient 0), and with no drops the
    /// batch's own arrays come back untouched (same `Rc`s).
    pub fn masked_pool(&self, dropped: &[u32]) -> PoolArrays {
        let mut weights = vec![1.0f32; self.num_vertices];
        for &d in dropped {
            weights[d as usize] = 0.0;
        }
        self.weighted_pool(&weights)
    }

    /// POOL arrays with each device's contribution scaled by
    /// `weights[owner]` (Eq. 31 as a weighted mean): weight 0 removes a
    /// device's leaves, a fractional weight scales each of its leaf rows
    /// before the scatter-add, and each vertex's mean coefficient
    /// renormalizes by the surviving weight sum.
    /// A device may legitimately weigh more than 1 when its fresh update
    /// and a buffered stale one pool in the same round.
    ///
    /// Bit-compatibility: all-ones weights return the batch's own arrays
    /// untouched (same `Rc`s), so the default path's op sequence and
    /// bitstream never change; a pure 0/1 weighting produces integer-count
    /// coefficients and no per-leaf scale — so the buffered policy with
    /// nothing buffered is bitwise the deadline.
    pub fn weighted_pool(&self, weights: &[f32]) -> PoolArrays {
        assert_eq!(weights.len(), self.num_vertices, "one weight per device");
        debug_assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "pool weights must be finite and non-negative"
        );
        if weights.iter().all(|&w| w == 1.0) {
            return PoolArrays {
                leaves: self.pool_leaves.clone(),
                vertices: self.pool_vertices.clone(),
                coeff: self.pool_coeff.clone(),
                owners: self.pool_owners.clone(),
                leaf_weights: None,
            };
        }
        let mut leaves = Vec::with_capacity(self.pool_leaves.len());
        let mut vertices = Vec::with_capacity(self.pool_vertices.len());
        let mut owners = Vec::with_capacity(self.pool_owners.len());
        let mut leaf_weights = Vec::with_capacity(self.pool_leaves.len());
        let mut counts = vec![0u32; self.num_vertices];
        let mut weight_sums = vec![0.0f64; self.num_vertices];
        let mut uniform = true;
        for ((&leaf, &vertex), &owner) in self
            .pool_leaves
            .iter()
            .zip(self.pool_vertices.iter())
            .zip(self.pool_owners.iter())
        {
            let w = weights[owner as usize];
            if w == 0.0 {
                continue;
            }
            if w != 1.0 {
                uniform = false;
            }
            leaves.push(leaf);
            vertices.push(vertex);
            owners.push(owner);
            leaf_weights.push(w);
            counts[vertex as usize] += 1;
            weight_sums[vertex as usize] += w as f64;
        }
        let coeff: Vec<f32> = if uniform {
            counts
                .iter()
                .map(|&c| if c == 0 { 0.0 } else { 1.0 / c as f32 })
                .collect()
        } else {
            weight_sums
                .iter()
                .map(|&s| if s == 0.0 { 0.0 } else { (1.0 / s) as f32 })
                .collect()
        };
        PoolArrays {
            leaves: Rc::new(leaves),
            vertices: Rc::new(vertices),
            coeff: Rc::new(coeff),
            owners: Rc::new(owners),
            leaf_weights: if uniform {
                None
            } else {
                Some(Rc::new(leaf_weights))
            },
        }
    }
}

/// Builds the batched forest.
///
/// `features` is the raw `[n, dim]` feature matrix; center leaves point into
/// it (the paper: the center's feature is the only non-noised one in its
/// tree), neighbor leaves share the estimates `exchange` kept. A pair the
/// exchange never covered is the message nothing was received of — every
/// symbol missing, the information-free midpoint throughout.
pub fn build_compact<'a>(
    trees: &[DeviceTree],
    features: &'a [f32],
    dim: usize,
    exchange: &LdpExchange,
) -> BatchedTrees<FeatureRows<'a>> {
    let n = trees.len();
    assert_eq!(features.len(), n * dim, "feature matrix shape mismatch");
    let total_nodes: usize = trees.iter().map(|t| t.num_nodes()).sum();

    let mut rows: Vec<FeatureRow> = Vec::with_capacity(total_nodes);
    let mut absent: Option<Rc<RecoveredFeature>> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut pool_leaves: Vec<u32> = Vec::new();
    let mut pool_vertices: Vec<u32> = Vec::new();
    let mut pool_owners: Vec<u32> = Vec::new();
    let mut leaf_counts = vec![0u32; n];
    let mut tree_sizes = Vec::with_capacity(n);

    let mut offset = 0u32;
    for tree in trees {
        tree_sizes.push(tree.num_nodes());
        for (a, b) in &tree.edges {
            edges.push((offset + a, offset + b));
        }
        let mut first_center = None;
        for (local, node) in tree.nodes.iter().enumerate() {
            let bid = offset + local as u32;
            let vertex = match node {
                TreeNode::Root | TreeNode::Parent(_) => {
                    rows.push(FeatureRow::Zero);
                    continue;
                }
                TreeNode::CenterLeaf(_) | TreeNode::EgoCenter => {
                    rows.push(FeatureRow::Raw {
                        vertex: tree.center,
                        first: *first_center.get_or_insert(bid),
                    });
                    tree.center
                }
                TreeNode::NeighborLeaf(k) | TreeNode::EgoNeighbor(k) => {
                    let v = tree.neighbors[*k as usize];
                    let kept = exchange
                        .recovered
                        .get(&(tree.center, v))
                        .unwrap_or_else(|| {
                            absent.get_or_insert_with(|| Rc::new(RecoveredFeature::absent(dim)))
                        });
                    rows.push(FeatureRow::Coded(Rc::clone(kept)));
                    v
                }
            };
            pool_leaves.push(bid);
            pool_vertices.push(vertex);
            pool_owners.push(tree.center);
            leaf_counts[vertex as usize] += 1;
        }
        offset += tree.num_nodes() as u32;
    }

    let pool_coeff: Vec<f32> = leaf_counts
        .iter()
        .map(|&c| if c == 0 { 0.0 } else { 1.0 / c as f32 })
        .collect();

    BatchedTrees {
        mg: MessageGraph::from_undirected(total_nodes, &edges),
        features: FeatureRows {
            dim,
            raw: features,
            rows,
        },
        pool_leaves: Rc::new(pool_leaves),
        pool_vertices: Rc::new(pool_vertices),
        pool_coeff: Rc::new(pool_coeff),
        pool_owners: Rc::new(pool_owners),
        tree_sizes,
        num_vertices: n,
    }
}

/// [`build_compact`] with the features written out as a dense
/// `[total_nodes, dim]` tensor ([`FeatureRows::to_tensor`]). No run trains
/// on it: it is the oracle the compact rows are tested against, and what
/// the benchmark's replay — its one remaining caller — still reads until it
/// moves onto the row operand.
pub fn build_batched(
    trees: &[DeviceTree],
    features: &[f32],
    dim: usize,
    exchange: &LdpExchange,
) -> BatchedTrees {
    let compact = build_compact(trees, features, dim, exchange);
    BatchedTrees {
        features: compact.features.to_tensor(),
        mg: compact.mg,
        pool_leaves: compact.pool_leaves,
        pool_vertices: compact.pool_vertices,
        pool_coeff: compact.pool_coeff,
        pool_owners: compact.pool_owners,
        tree_sizes: compact.tree_sizes,
        num_vertices: compact.num_vertices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::exchange_features;
    use crate::tree::LocalGraphKind;
    use lumos_common::rng::Xoshiro256pp;
    use lumos_fed::SimNetwork;

    fn build_example() -> (Vec<DeviceTree>, Vec<f32>, usize, LdpExchange) {
        // Path 0-1-2, everyone keeps everyone.
        let trees = vec![
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 0, vec![1]),
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 1, vec![0, 2]),
            DeviceTree::build(LocalGraphKind::VirtualNodeTree, 2, vec![1]),
        ];
        let dim = 6;
        let features: Vec<f32> = (0..3 * dim).map(|i| (i % 4) as f32 / 4.0).collect();
        let mut net = SimNetwork::new(3);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let ex = exchange_features(&features, dim, &trees, 2.0, &mut rng, &mut net);
        (trees, features, dim, ex)
    }

    #[test]
    fn batched_shapes_and_pool_indexes() {
        let (trees, features, dim, ex) = build_example();
        let batch = build_batched(&trees, &features, dim, &ex);
        // Trees: wl 1, 2, 1 → 4 + 7 + 4 = 15 nodes.
        assert_eq!(batch.total_nodes(), 15);
        assert_eq!(batch.features.dims(), (15, dim));
        // Leaves: 2·wl per tree = 2 + 4 + 2 = 8.
        assert_eq!(batch.pool_leaves.len(), 8);
        assert_eq!(batch.pool_vertices.len(), 8);
        // Leaf counts: vertex 0 appears as center (1x in tree 0) +
        // neighbor leaf in tree 1 → plus center copies: tree0 wl=1 → one
        // center copy. Total for 0: 1 + 1 = 2. Vertex 1: center copies 2 +
        // neighbor leaves in trees 0, 2 → 4.
        let count = |v: u32| batch.pool_vertices.iter().filter(|&&x| x == v).count();
        assert_eq!(count(0), 2);
        assert_eq!(count(1), 4);
        assert_eq!(count(2), 2);
        assert!((batch.pool_coeff[1] - 0.25).abs() < 1e-7);
        assert_eq!(batch.tree_sizes, vec![4, 7, 4]);
    }

    #[test]
    fn center_leaves_carry_raw_features() {
        let (trees, features, dim, ex) = build_example();
        let batch = build_batched(&trees, &features, dim, &ex);
        // Tree 0 layout: 0=root, 1=P, 2=center leaf, 3=neighbor leaf.
        let center_row = batch.features.row(2);
        assert_eq!(center_row, &features[0..dim], "center feature not noised");
        // Root/parent rows are zero.
        assert!(batch.features.row(0).iter().all(|&x| x == 0.0));
        assert!(batch.features.row(1).iter().all(|&x| x == 0.0));
        // Neighbor leaf (vertex 1's noisy feature) is a recovery: values in
        // the decode set, not the raw feature in general.
        let noisy = batch.features.row(3);
        assert!(noisy.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn every_vertex_is_pooled() {
        let (trees, features, dim, ex) = build_example();
        let batch = build_batched(&trees, &features, dim, &ex);
        for v in 0..3u32 {
            assert!(
                batch.pool_vertices.contains(&v),
                "vertex {v} must own at least one leaf"
            );
        }
        assert!(batch.pool_coeff.iter().all(|&c| c > 0.0));
    }

    #[test]
    fn masked_pool_removes_late_owners_and_renormalizes() {
        let (trees, features, dim, ex) = build_example();
        let batch = build_batched(&trees, &features, dim, &ex);
        // No drops: the untouched arrays come back — same allocations.
        let p = batch.masked_pool(&[]);
        assert!(Rc::ptr_eq(&p.leaves, &batch.pool_leaves));
        assert!(Rc::ptr_eq(&p.vertices, &batch.pool_vertices));
        assert!(Rc::ptr_eq(&p.coeff, &batch.pool_coeff));
        assert!(p.leaf_weights.is_none());
        // Drop device 1 (the path's middle): its 4 leaves vanish.
        let p = batch.masked_pool(&[1]);
        assert_eq!(p.leaves.len(), 4);
        assert_eq!(p.vertices.len(), 4);
        // Vertex 1 keeps only its neighbor-leaf copies in trees 0 and 2.
        assert_eq!(p.vertices.iter().filter(|&&x| x == 1).count(), 2);
        assert!((p.coeff[1] - 0.5).abs() < 1e-7);
        // Vertices 0 and 2 lose the copies tree 1 carried: one survivor
        // each (their own center leaf), coefficient 1.
        assert!((p.coeff[0] - 1.0).abs() < 1e-7 && (p.coeff[2] - 1.0).abs() < 1e-7);
        // Drop everything: the pool empties and every coefficient is 0.
        let p = batch.masked_pool(&[0, 1, 2]);
        assert!(p.leaves.is_empty());
        assert!(p.coeff.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn all_ones_weights_are_the_identity_pool() {
        let (trees, features, dim, ex) = build_example();
        let batch = build_batched(&trees, &features, dim, &ex);
        let p = batch.weighted_pool(&[1.0; 3]);
        assert!(Rc::ptr_eq(&p.leaves, &batch.pool_leaves));
        assert!(Rc::ptr_eq(&p.vertices, &batch.pool_vertices));
        assert!(Rc::ptr_eq(&p.coeff, &batch.pool_coeff));
        assert!(p.leaf_weights.is_none());
    }

    #[test]
    fn zero_one_weights_match_the_mask_bit_for_bit() {
        // A pure 0/1 weighting is a mask: the dropped owner's leaves leave
        // the arrays, coefficients are exact integer-count reciprocals, and
        // no per-leaf scaling op appears.
        let (trees, features, dim, ex) = build_example();
        let batch = build_batched(&trees, &features, dim, &ex);
        // Batched layout: a root, then (parent, center leaf, neighbor leaf)
        // per branch — tree 0 = nodes 0..4, tree 1 = 4..11, tree 2 = 11..15.
        assert_eq!(*batch.pool_leaves, vec![2, 3, 6, 7, 9, 10, 13, 14]);
        assert_eq!(*batch.pool_vertices, vec![0, 1, 1, 0, 1, 2, 2, 1]);
        let weighted = batch.weighted_pool(&[1.0, 0.0, 1.0]);
        assert_eq!(*weighted.leaves, vec![2, 3, 13, 14]);
        assert_eq!(*weighted.vertices, vec![0, 1, 2, 1]);
        assert_eq!(*weighted.owners, vec![0, 0, 2, 2]);
        let expected = [1.0f32, 0.5, 1.0];
        for (got, want) in weighted.coeff.iter().zip(expected) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert!(weighted.leaf_weights.is_none());
    }

    #[test]
    fn fractional_weights_scale_and_renormalize() {
        let (trees, features, dim, ex) = build_example();
        let batch = build_batched(&trees, &features, dim, &ex);
        // Device 1 pools at half weight (a stale update one round old at
        // decay 0.5); devices 0 and 2 are fresh.
        let p = batch.weighted_pool(&[1.0, 0.5, 1.0]);
        // Nothing is removed — all 8 leaves survive, each carrying its
        // owner's weight.
        assert_eq!(p.leaves.len(), 8);
        let lw = p.leaf_weights.as_ref().expect("fractional ⇒ scaled");
        // Owners in tree order (0,0,1,1,1,1,2,2) ⇒ weights follow.
        assert_eq!(**lw, vec![1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0]);
        // Vertex 1's contributions: its center copies (2 × 0.5 from tree 1)
        // plus neighbor-leaf copies in trees 0 and 2 (2 × 1.0) ⇒ total 3,
        // coefficient 1/3.
        assert!((p.coeff[1] - 1.0 / 3.0).abs() < 1e-7);
        // Vertex 0: own center leaf (1.0) + tree 1's neighbor copy (0.5).
        assert!((p.coeff[0] - 1.0 / 1.5).abs() < 1e-7);
    }

    #[test]
    fn pool_owners_name_the_shipping_tree() {
        let (trees, features, dim, ex) = build_example();
        let batch = build_batched(&trees, &features, dim, &ex);
        assert_eq!(batch.pool_owners.len(), batch.pool_leaves.len());
        // Tree layout is sequential: owners appear in tree order.
        assert_eq!(*batch.pool_owners, vec![0, 0, 1, 1, 1, 1, 2, 2]);
    }

    /// A forest over `n` vertices with every tree shape: virtual-node trees
    /// of random fan-out, one-node and star ego networks, and a run of
    /// `hollow` virtual rows (a tree of roots only) so whole 32-row blocks
    /// come out zero.
    fn seeded_forest(n: usize, hollow: usize, rng: &mut Xoshiro256pp) -> Vec<DeviceTree> {
        (0..n as u32)
            .map(|v| {
                let others: Vec<u32> = (0..n as u32).filter(|&u| u != v).collect();
                let wl = rng.index(others.len().min(6) + 1);
                let kept = others[..wl].to_vec();
                match rng.index(4) {
                    0 => DeviceTree::build(LocalGraphKind::RawEgoNetwork, v, kept),
                    1 => DeviceTree {
                        nodes: [vec![TreeNode::Root; hollow], vec![TreeNode::EgoCenter]].concat(),
                        ..DeviceTree::build(LocalGraphKind::RawEgoNetwork, v, Vec::new())
                    },
                    _ => DeviceTree::build(LocalGraphKind::VirtualNodeTree, v, kept),
                }
            })
            .collect()
    }

    #[test]
    fn first_layer_products_over_the_rows_equal_the_dense_ones_bit_for_bit() {
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = Xoshiro256pp::seed_from_u64(0xba7c4);
        // `dim` off the four-codes-a-byte grid; `n` below, at and past the
        // 16-column tile.
        for (vertices, dim, hollow) in [(1, 5, 0), (9, 7, 40), (24, 13, 70), (40, 192, 33)] {
            let trees = seeded_forest(vertices, hollow, &mut rng);
            // Raw rows with zeros of both signs, and one entirely zero.
            let mut features: Vec<f32> = (0..vertices * dim)
                .map(|_| match rng.index(5) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.next_f32(),
                })
                .collect();
            features[..dim].fill(0.0);
            let mut net = SimNetwork::new(vertices);
            let mut ex = exchange_features(&features, dim, &trees, 2.0, &mut rng, &mut net);
            // One pair the exchange never covered: the all-missing row.
            if let Some(&pair) = ex.recovered.keys().next() {
                ex.recovered.remove(&pair);
            }
            let batch = build_compact(&trees, &features, dim, &ex);
            let x = &batch.features;
            let dense = x.to_tensor();
            let rows = batch.total_nodes();
            if vertices > 1 {
                // Every kind of row, and a center row that repeats another.
                let has = |kind: fn(&FeatureRow) -> bool| x.rows.iter().any(kind);
                assert!(has(|r| matches!(r, FeatureRow::Zero)));
                assert!(has(|r| matches!(r, FeatureRow::Coded(_))));
                assert!((0..rows).any(|r| x.alias(r).is_some()));
            }
            for n in [1, 7, 16, 17] {
                let w = Tensor::rand_uniform(dim, n, -1.0, 1.0, &mut rng);
                let g = Tensor::rand_uniform(rows, n, -1.0, 1.0, &mut rng);
                assert_eq!(
                    bits(&lumos_tensor::matmul_rows(x, &w)),
                    bits(&dense.matmul(&w)),
                    "X·W at {rows}x{dim}x{n}"
                );
                assert_eq!(
                    bits(&lumos_tensor::matmul_tn_rows(x, &g)),
                    bits(&dense.matmul_tn(&g)),
                    "Xᵀ·g at {rows}x{dim}x{n}"
                );
            }
        }
    }

    #[test]
    fn an_uncovered_pair_is_the_all_missing_row() {
        let (trees, features, dim, mut ex) = build_example();
        ex.recovered.remove(&(0, 1));
        let batch = build_batched(&trees, &features, dim, &ex);
        // Tree 0's neighbor leaf (row 3) had no message: the midpoint.
        assert_eq!(batch.features.row(3), vec![0.5f32; dim]);
        assert_ne!(batch.features.row(7), vec![0.5f32; dim]);
    }

    #[test]
    fn raw_ego_batching_works_too() {
        let trees = vec![
            DeviceTree::build(LocalGraphKind::RawEgoNetwork, 0, vec![1]),
            DeviceTree::build(LocalGraphKind::RawEgoNetwork, 1, vec![0]),
        ];
        let dim = 4;
        let features = vec![0.25f32; 2 * dim];
        let mut net = SimNetwork::new(2);
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let ex = exchange_features(&features, dim, &trees, 2.0, &mut rng, &mut net);
        let batch = build_batched(&trees, &features, dim, &ex);
        assert_eq!(batch.total_nodes(), 4);
        assert_eq!(batch.pool_leaves.len(), 4);
    }
}
